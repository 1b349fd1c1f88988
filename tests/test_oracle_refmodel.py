"""Reference-model unit behaviour and the cache/hierarchy differentials."""

import random

import pytest

from repro.errors import OracleError
from repro.machine.config import CacheGeometry, MachineConfig
from repro.machine.hierarchy import MemoryHierarchy
from repro.oracle import RefCache, RefHierarchy, diff_hierarchy, gen_hierarchy_ops
from repro.oracle.verify import STRESS_MACHINE

TINY = CacheGeometry(size_bytes=128, associativity=2, block_bytes=32)  # 2 sets
#: 4 sets x 2 ways: constant conflict pressure.
STRESS_GEOMETRY = CacheGeometry(size_bytes=256, associativity=2, block_bytes=32)


def diff_l1_lru(geometry, blocks, hierarchy_cls=MemoryHierarchy):
    """Demand-access ``blocks`` on a hierarchy whose L1 is ``geometry`` and
    on a RefCache (lookup, then install on a miss) in lockstep.

    Per-access hit/miss, the counters and every set's LRU order must agree.
    The L2 holds the whole block pool without evicting, so inclusion never
    invalidates an L1 line the reference still holds.
    """
    l2 = CacheGeometry(64 * 1024, 8, geometry.block_bytes)
    prod = hierarchy_cls(MachineConfig(l1=geometry, l2=l2))
    ref = RefCache(geometry)
    for i, block in enumerate(blocks):
        hits = prod.l1.hits
        prod.access(block * geometry.block_bytes, now=i)
        want = ref.lookup(block)
        if not want:
            ref.install(block)
        if (prod.l1.hits > hits) != want:
            raise OracleError(f"access #{i} of block {block}: hit mismatch")
    assert prod.l2.evictions == 0
    for name in ("hits", "misses", "evictions"):
        if getattr(prod.l1, name) != getattr(ref, name):
            raise OracleError(f"L1 {name} differ")
    for s in range(geometry.num_sets):
        # White-box probe: the production set list *is* LRU->MRU order.
        if list(prod.l1._sets[s]) != ref.lru_order(s):
            raise OracleError(f"set {s} LRU order differs")


def random_blocks(rng, count, geometry):
    """Blocks from a pool of twice the cache's capacity: frequent evictions."""
    pool = 2 * geometry.num_sets * geometry.associativity
    return [rng.randrange(pool) for _ in range(count)]


class TestRefCache:
    def test_lru_eviction_order(self):
        ref = RefCache(TINY)
        # Same set (set 0): blocks 0, 2, 4 with 2 ways.
        assert ref.install(0) is None
        assert ref.install(2) is None
        assert ref.install(4) == 0  # LRU victim
        assert ref.evictions == 1
        assert ref.resident_blocks() == {2, 4}

    def test_lookup_promotes_hit(self):
        ref = RefCache(TINY)
        ref.install(0)
        ref.install(2)
        assert ref.lookup(0)  # 0 becomes MRU
        assert ref.install(4) == 2
        assert ref.lru_order(0) == [0, 4]

    def test_lookup_miss_does_not_install(self):
        ref = RefCache(TINY)
        assert not ref.lookup(6)
        assert ref.misses == 1
        assert not ref.contains(6)

    def test_contains_is_silent(self):
        ref = RefCache(TINY)
        ref.install(0)
        ref.install(2)
        assert ref.contains(0)  # must NOT promote
        assert ref.install(4) == 0  # 0 still LRU
        assert ref.hits == 0 and ref.misses == 0

    def test_invalidate_does_not_count_eviction(self):
        ref = RefCache(TINY)
        ref.install(0)
        assert ref.invalidate(0)
        assert not ref.invalidate(0)
        assert ref.evictions == 0

    def test_flush_preserves_counters(self):
        ref = RefCache(TINY)
        ref.lookup(0)
        ref.install(0)
        ref.flush()
        assert ref.resident_blocks() == set()
        assert ref.misses == 1


class TestRefHierarchy:
    def test_prefetch_then_use_is_useful(self):
        hier = RefHierarchy(MachineConfig())
        hier.issue_prefetch(0, now=0)
        stall = hier.access(0, now=1000)  # long after arrival
        assert stall == 0
        assert hier.prefetch.useful == 1

    def test_early_access_is_late_with_residual_stall(self):
        cfg = MachineConfig()
        hier = RefHierarchy(cfg)
        hier.issue_prefetch(0, now=0)
        stall = hier.access(0, now=10)
        assert stall == cfg.memory_latency - 10
        assert hier.prefetch.late == 1

    def test_unused_prefetch_wasted_at_finalize(self):
        hier = RefHierarchy(MachineConfig())
        hier.issue_prefetch(0, now=0)
        hier.finalize()
        assert hier.prefetch.wasted == 1

    def test_resident_prefetch_is_redundant(self):
        hier = RefHierarchy(MachineConfig())
        hier.access(0, now=0)
        hier.issue_prefetch(0, now=1)
        assert hier.prefetch.redundant == 1


class TestDifferential:
    @pytest.mark.parametrize("seed", [0, 1, 2, 1337])
    def test_cache_agrees_on_random_ops(self, seed):
        """The hierarchy's inline L1 set logic against RefCache."""
        rng = random.Random(seed)
        for geometry in (TINY, STRESS_GEOMETRY, MachineConfig().l1):
            diff_l1_lru(geometry, random_blocks(rng, 500, geometry))

    @pytest.mark.parametrize("seed", [0, 1, 2, 1337])
    def test_hierarchy_agrees_on_random_ops(self, seed):
        rng = random.Random(seed)
        diff_hierarchy(STRESS_MACHINE, gen_hierarchy_ops(rng, 500, STRESS_MACHINE))

    @pytest.mark.parametrize("seed", [0, 1])
    def test_nonzero_lane_agrees_on_random_ops(self, seed):
        rng = random.Random(seed)
        diff_hierarchy(STRESS_MACHINE, gen_hierarchy_ops(rng, 500, STRESS_MACHINE), tenant=1)

    def test_planted_lane_bug_is_caught_off_lane_zero(self, monkeypatch):
        """Prefetching without the lane offset is invisible on lane 0 and
        must be flagged on lane 1."""

        class OffsetlessPrefetch(MemoryHierarchy):
            def issue_prefetch(self, addr, now, source="sw"):
                offset, self._offset = self._offset, 0
                try:
                    super().issue_prefetch(addr, now, source)
                finally:
                    self._offset = offset

        monkeypatch.setattr("repro.oracle.fuzz.MemoryHierarchy", OffsetlessPrefetch)
        ops = gen_hierarchy_ops(random.Random(0), 500, STRESS_MACHINE)
        diff_hierarchy(STRESS_MACHINE, ops)
        with pytest.raises(OracleError):
            diff_hierarchy(STRESS_MACHINE, ops, tenant=1)

    def test_hierarchy_agrees_with_flush_and_finalize_mixed(self):
        ops = [
            ("prefetch", 0), ("access", 0), ("prefetch", 64), ("flush", 0),
            ("access", 64), ("prefetch", 128), ("finalize", 0), ("access", 128),
        ]
        diff_hierarchy(STRESS_MACHINE, ops)

    def test_planted_cache_bug_is_caught(self):
        """An L1 hit that fails to promote its line to MRU must not survive
        the differential."""

        class NoPromoteOnHit(MemoryHierarchy):
            def access(self, addr, now):
                way = self.l1._sets[self.block_of(addr) & self.l1._set_mask]
                order = list(way)
                stall = super().access(addr, now)
                if self.block_of(addr) in order:
                    way[:] = order  # planted bug: the hit keeps its LRU slot
                return stall

        rng = random.Random(3)
        blocks = random_blocks(rng, 400, STRESS_GEOMETRY)
        diff_l1_lru(STRESS_GEOMETRY, blocks)
        with pytest.raises(OracleError):
            diff_l1_lru(STRESS_GEOMETRY, blocks, NoPromoteOnHit)

    def test_planted_hierarchy_bug_is_caught(self):
        """Mis-charging late prefetches as useful must be flagged."""

        class BuggyHierarchy(MemoryHierarchy):
            def access(self, addr, now):
                block = addr >> self._block_shift
                if block in self._inflight:
                    # Planted bug: pretend every in-flight block already arrived.
                    self._inflight[block] = now
                return super().access(addr, now)

        cfg = STRESS_MACHINE
        prod, ref = BuggyHierarchy(cfg), RefHierarchy(cfg)
        prod.issue_prefetch(0, 0)
        ref.issue_prefetch(0, 0)
        assert prod.access(0, 5) != ref.access(0, 5)
