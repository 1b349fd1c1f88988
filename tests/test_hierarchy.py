"""Tests for the two-level hierarchy and the software-prefetch model."""

import pytest

from repro.machine.config import CacheGeometry, MachineConfig
from repro.machine.hierarchy import MemoryHierarchy


def make_hierarchy(l2_latency=10, memory_latency=100) -> MemoryHierarchy:
    config = MachineConfig(
        l1=CacheGeometry(512, 2),   # 16 blocks
        l2=CacheGeometry(4096, 4),  # 128 blocks
        l2_latency=l2_latency,
        memory_latency=memory_latency,
    )
    return MemoryHierarchy(config)


class TestDemandAccess:
    def test_cold_miss_pays_memory_latency(self):
        h = make_hierarchy()
        assert h.access(0x1000, now=0) == 100

    def test_l1_hit_is_free(self):
        h = make_hierarchy()
        h.access(0x1000, now=0)
        assert h.access(0x1000, now=200) == 0

    def test_same_block_hits(self):
        h = make_hierarchy()
        h.access(0x1000, now=0)
        assert h.access(0x1000 + 28, now=200) == 0  # same 32B block

    def test_l2_hit_pays_l2_latency(self):
        h = make_hierarchy()
        h.access(0x1000, now=0)
        # Evict block from tiny L1 with conflicting blocks (same L1 set).
        l1_sets = h.l1.geometry.num_sets
        block_bytes = h.config.block_bytes
        for k in range(1, 4):
            h.access(0x1000 + k * l1_sets * block_bytes, now=0)
        stall = h.access(0x1000, now=500)
        assert stall == 10

    def test_counters(self):
        h = make_hierarchy()
        h.access(0x1000, now=0)
        h.access(0x1000, now=1)
        assert h.demand_accesses == 2
        assert h.l1.misses == 1
        assert h.l1.hits == 1
        assert 0.0 < h.l1_miss_rate < 1.0


class TestPrefetch:
    def test_timely_prefetch_hides_latency(self):
        h = make_hierarchy()
        h.issue_prefetch(0x2000, now=0)
        stall = h.access(0x2000, now=150)  # after the 100-cycle fetch
        assert stall == 0
        assert h.prefetch.useful == 1
        assert h.prefetch.late == 0

    def test_late_prefetch_pays_residual(self):
        h = make_hierarchy()
        h.issue_prefetch(0x2000, now=0)
        stall = h.access(0x2000, now=40)
        assert stall == 60  # 100 - 40
        assert h.prefetch.late == 1
        assert h.prefetch.useful == 0

    def test_redundant_prefetch_detected(self):
        h = make_hierarchy()
        h.access(0x2000, now=0)
        h.issue_prefetch(0x2000, now=10)
        assert h.prefetch.redundant == 1

    def test_duplicate_prefetch_is_redundant(self):
        h = make_hierarchy()
        h.issue_prefetch(0x2000, now=0)
        h.issue_prefetch(0x2000, now=1)
        assert h.prefetch.issued == 2
        assert h.prefetch.redundant == 1

    def test_l2_resident_prefetch_is_fast(self):
        h = make_hierarchy()
        h.access(0x1000, now=0)
        l1_sets = h.l1.geometry.num_sets
        block = h.config.block_bytes
        for k in range(1, 4):  # push 0x1000 out of L1, stays in L2
            h.access(0x1000 + k * l1_sets * block, now=0)
        h.issue_prefetch(0x1000, now=500)
        assert h.access(0x1000, now=520) == 0  # ready at 510

    def test_unused_prefetch_wasted_on_finalize(self):
        h = make_hierarchy()
        h.issue_prefetch(0x2000, now=0)
        h.finalize()
        assert h.prefetch.wasted == 1

    def test_pollution_evicted_prefetch_counts_wasted(self):
        h = make_hierarchy()
        h.issue_prefetch(0x2000, now=0)
        # Push it out of both levels with > L2-capacity distinct blocks.
        for k in range(1, 300):
            h.access(0x100000 + k * 32, now=0)
        assert h.prefetch.wasted == 1

    def test_prefetch_can_evict_demand_data(self):
        """Wrong prefetches pollute: the Seq-pref failure mode."""
        h = make_hierarchy()
        h.access(0x1000, now=0)
        l1_sets = h.l1.geometry.num_sets
        block = h.config.block_bytes
        # Prefetch two conflicting blocks into the same L1 set.
        h.issue_prefetch(0x1000 + l1_sets * block, now=0)
        h.issue_prefetch(0x1000 + 2 * l1_sets * block, now=0)
        assert h.block_of(0x1000) not in h.l1.resident_blocks()

    def test_accuracy_property(self):
        h = make_hierarchy()
        h.issue_prefetch(0x2000, now=0)
        h.issue_prefetch(0x3000, now=0)
        h.access(0x2000, now=200)
        h.finalize()
        assert h.prefetch.accuracy == pytest.approx(0.5)

    def test_flush_clears_state(self):
        h = make_hierarchy()
        h.access(0x1000, now=0)
        h.issue_prefetch(0x2000, now=0)
        h.flush()
        assert h.access(0x1000, now=10) == 100


class TestInclusion:
    def test_l2_eviction_invalidates_l1(self):
        h = make_hierarchy()
        h.access(0x0, now=0)
        l2_sets = h.l2.geometry.num_sets
        block = h.config.block_bytes
        # Fill the L2 set of block 0 with conflicting blocks.
        for k in range(1, 5):
            h.access(k * l2_sets * block, now=0)
        assert 0 not in h.l1.resident_blocks()
        assert 0 not in h.l2.resident_blocks()
