"""Tests for the stride and Markov hardware-prefetcher baselines."""

from repro.core.hwpref import MarkovPrefetcher, StridePrefetcher
from repro.ir.instructions import Pc
from repro.machine.config import CacheGeometry, MachineConfig
from repro.machine.hierarchy import MemoryHierarchy


def make_hierarchy():
    return MemoryHierarchy(
        MachineConfig(l1=CacheGeometry(512, 2), l2=CacheGeometry(4096, 4))
    )


class TestStride:
    def test_constant_stride_triggers_prefetch(self):
        h = make_hierarchy()
        pf = StridePrefetcher(degree=1, min_confidence=2)
        pc = Pc("f", 0)
        for k in range(5):
            pf.observe(pc, 0x1000 + 128 * k, now=k, hierarchy=h)
        assert h.prefetch.issued > 0
        # The next-in-stride block is resident before the demand access.
        assert h.access(0x1000 + 128 * 5, now=1000) == 0

    def test_random_addresses_never_trigger(self):
        h = make_hierarchy()
        pf = StridePrefetcher(min_confidence=2)
        pc = Pc("f", 0)
        for addr in (0x1000, 0x9000, 0x2000, 0x7000, 0x100):
            pf.observe(pc, addr, now=0, hierarchy=h)
        assert h.prefetch.issued == 0

    def test_per_pc_tables_independent(self):
        h = make_hierarchy()
        pf = StridePrefetcher(degree=1, min_confidence=1)
        # Interleaved streams at two pcs, each with its own stride.
        for k in range(4):
            pf.observe(Pc("f", 0), 0x1000 + 64 * k, now=0, hierarchy=h)
            pf.observe(Pc("f", 1), 0x8000 + 96 * k, now=0, hierarchy=h)
        assert h.prefetch.issued > 0

    def test_zero_stride_ignored(self):
        h = make_hierarchy()
        pf = StridePrefetcher(min_confidence=1)
        pc = Pc("f", 0)
        for _ in range(5):
            pf.observe(pc, 0x1000, now=0, hierarchy=h)
        assert h.prefetch.issued == 0

    def test_table_eviction_bounds_size(self):
        h = make_hierarchy()
        pf = StridePrefetcher(table_size=4)
        for k in range(16):
            pf.observe(Pc("f", k), 0x1000, now=0, hierarchy=h)
        assert len(pf._table) <= 4

    def test_sub_block_stride_rounded_to_block(self):
        h = make_hierarchy()
        pf = StridePrefetcher(degree=1, min_confidence=1)
        pc = Pc("f", 0)
        for k in range(4):
            pf.observe(pc, 0x1000 + 4 * k, now=0, hierarchy=h)
        # Prefetches land on following blocks, not the same block.
        assert h.prefetch.issued > 0


class TestMarkov:
    def test_learned_digram_prefetched(self):
        h = make_hierarchy()
        pf = MarkovPrefetcher(fanout=1)
        pc = Pc("f", 0)
        # Teach A -> B twice, then revisit A.  Addresses are chosen to land
        # in different L1 sets so the prefetched blocks cannot alias.
        for _ in range(2):
            pf.observe(pc, 0x1000, now=0, hierarchy=h)
            pf.observe(pc, 0x8020, now=0, hierarchy=h)
            pf.observe(pc, 0x20040, now=0, hierarchy=h)  # break the pair
        issued_before = h.prefetch.issued
        pf.observe(pc, 0x1000, now=0, hierarchy=h)
        assert h.prefetch.issued > issued_before
        assert 0x8020 >> 5 in h.l1.resident_blocks()

    def test_fanout_limits_predictions(self):
        h = make_hierarchy()
        pf = MarkovPrefetcher(fanout=1)
        pc = Pc("f", 0)
        # A followed by many different successors.
        for successor in (0x8000, 0x9000, 0xA000):
            pf.observe(pc, 0x1000, now=0, hierarchy=h)
            pf.observe(pc, successor, now=0, hierarchy=h)
        before = h.prefetch.issued
        pf.observe(pc, 0x1000, now=0, hierarchy=h)
        assert h.prefetch.issued - before <= 1

    def test_same_block_repeat_not_a_transition(self):
        h = make_hierarchy()
        pf = MarkovPrefetcher()
        pc = Pc("f", 0)
        for _ in range(5):
            pf.observe(pc, 0x1000, now=0, hierarchy=h)
        assert h.prefetch.issued == 0

    def test_table_bounded(self):
        h = make_hierarchy()
        pf = MarkovPrefetcher(table_size=8)
        pc = Pc("f", 0)
        for k in range(64):
            pf.observe(pc, k * 0x1000, now=0, hierarchy=h)
        assert len(pf._table) <= 8
