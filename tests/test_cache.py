"""The L1's set-associative LRU behaviour, driven through demand accesses.

:class:`~repro.machine.hierarchy.MemoryHierarchy` writes its lookups, fills
and evictions inline on the L1's sets, so the LRU, capacity and conflict
rules are tested through ``MemoryHierarchy.access`` on a tiny machine.  Its
L2 is large enough never to evict here, so inclusion never invalidates an
L1 line behind a test's back.
"""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.machine.config import CacheGeometry, MachineConfig
from repro.machine.hierarchy import MemoryHierarchy

BLOCK = 32


def make_hierarchy(size=512, ways=2) -> MemoryHierarchy:
    return MemoryHierarchy(
        MachineConfig(l1=CacheGeometry(size, ways, BLOCK), l2=CacheGeometry(64 * 1024, 8, BLOCK))
    )


def touch(h: MemoryHierarchy, block: int) -> bool:
    """Demand-access ``block``; True on an L1 hit."""
    hits = h.l1.hits
    h.access(block * BLOCK, now=0)
    return h.l1.hits > hits


class TestBasics:
    def test_cold_miss_then_hit(self):
        h = make_hierarchy()
        assert not touch(h, 5)
        assert touch(h, 5)
        assert h.l1.hits == 1
        assert h.l1.misses == 1

    def test_contains_does_not_count(self):
        """Probing residency touches neither the counters nor the LRU order."""
        h = make_hierarchy(size=128, ways=2)  # 2 sets, 2 ways
        touch(h, 0)
        touch(h, 2)
        assert 0 in h.l1.resident_blocks()
        assert 4 not in h.l1.resident_blocks()
        assert h.l1.accesses == 2
        touch(h, 4)  # 0 is still the LRU line of set 0
        assert h.l1.resident_blocks() == {2, 4}

    def test_install_returns_victim_when_set_full(self):
        h = make_hierarchy(size=128, ways=2)  # 2 sets, 2 ways
        # blocks 0, 2, 4 all map to set 0
        touch(h, 0)
        touch(h, 2)
        assert h.l1.evictions == 0
        touch(h, 4)
        assert h.l1.resident_blocks() == {2, 4}  # 0 was LRU
        assert h.l1.evictions == 1

    def test_lru_order_updated_by_lookup(self):
        h = make_hierarchy(size=128, ways=2)
        touch(h, 0)
        touch(h, 2)
        assert touch(h, 0)  # 0 becomes MRU, 2 is now LRU
        touch(h, 4)
        assert h.l1.resident_blocks() == {0, 4}

    def test_reinstall_promotes_no_eviction(self):
        h = make_hierarchy(size=128, ways=2)
        touch(h, 0)
        touch(h, 2)
        touch(h, 0)  # already present: promote, evict nothing
        assert h.l1.evictions == 0
        touch(h, 4)
        assert 2 not in h.l1.resident_blocks()

    def test_flush_preserves_counters(self):
        h = make_hierarchy()
        touch(h, 1)
        touch(h, 1)
        h.flush(now=0)
        assert 1 not in h.l1.resident_blocks()
        assert h.l1.hits == 1

    def test_blocks_in_different_sets_do_not_conflict(self):
        h = make_hierarchy(size=128, ways=2)  # 2 sets
        for block in (0, 1, 2, 3):  # sets 0,1,0,1
            touch(h, block)
        assert h.l1.resident_blocks() == {0, 1, 2, 3}
        assert h.l1.evictions == 0

    def test_resident_blocks(self):
        h = make_hierarchy()
        for block in (1, 2, 3):
            touch(h, block)
        assert h.l1.resident_blocks() == {1, 2, 3}


class TestCapacity:
    def test_never_exceeds_capacity(self):
        h = make_hierarchy(size=256, ways=4)  # 8 blocks total
        for block in range(100):
            touch(h, block)
        assert len(h.l1.resident_blocks()) <= 8

    def test_direct_mapped_conflicts(self):
        h = make_hierarchy(size=128, ways=1)  # 4 sets, direct-mapped
        touch(h, 0)
        touch(h, 4)  # same set
        assert h.l1.resident_blocks() == {4}

    def test_fully_scanned_working_set_evicts_everything(self):
        h = make_hierarchy(size=512, ways=2)  # 16 blocks
        for block in range(16):
            touch(h, block)
        for block in range(100, 132):  # 2x capacity of new blocks
            touch(h, block)
        assert not h.l1.resident_blocks() & set(range(16))


@settings(max_examples=50, deadline=None)
@given(st.lists(st.integers(min_value=0, max_value=63), min_size=1, max_size=300))
def test_property_capacity_and_determinism(blocks):
    """Capacity invariant holds and behaviour is deterministic."""
    results = []
    for _ in range(2):
        h = make_hierarchy(size=256, ways=2)  # 8 blocks
        hits = [touch(h, block) for block in blocks]
        assert len(h.l1.resident_blocks()) <= 8
        results.append(hits)
    assert results[0] == results[1]


@settings(max_examples=50, deadline=None)
@given(st.lists(st.integers(min_value=0, max_value=15), min_size=1, max_size=100))
def test_property_repeat_access_hits(blocks):
    """Accessing the same block twice in a row always hits the second time."""
    h = make_hierarchy(size=512, ways=4)
    for block in blocks:
        touch(h, block)
        assert touch(h, block)
