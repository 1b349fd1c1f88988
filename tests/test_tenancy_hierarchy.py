"""Tenant lanes of the hierarchy: isolation, attribution, pollution reconciliation."""

import random

import pytest

from repro.machine.config import CacheGeometry, MachineConfig
from repro.machine.hierarchy import MemoryHierarchy
from repro.tenancy import TenantHierarchy, TenantPlan, TenantSpec, run_tenant_plan

TINY = MachineConfig(
    l1=CacheGeometry(512, 2),
    l2=CacheGeometry(4096, 4),
    l2_latency=10,
    memory_latency=100,
)


class TestAddressIsolation:
    @pytest.mark.parametrize("sharing", ["shared", "private-l1"])
    def test_same_address_never_aliases_across_tenants(self, sharing):
        hier = TenantHierarchy(TINY, tenants=2, sharing=sharing)
        hier.activate(0)
        hier.access(0x1000, now=0)
        # Tenant 1 touching the same byte address must miss both levels:
        # the block translation gives it distinct tags.
        hier.activate(1)
        stall = hier.access(0x1000, now=500)
        assert stall == TINY.memory_latency
        assert hier.view(1).l1.hits == 0
        assert hier.view(1).l2.hits == 0

    def test_translation_preserves_set_index(self):
        hier = TenantHierarchy(TINY, tenants=2)
        shift = TINY.block_bytes.bit_length() - 1
        raw = 0x1234
        blocks = []
        for tid in (0, 1):
            hier.activate(tid)
            block = hier.block_of(raw)
            assert hier.owner_of(block) == tid
            # Low block bits (the set index at any power-of-two set count)
            # are untouched by the tenant offset.
            assert block % (1 << 20) == (raw >> shift) % (1 << 20)
            blocks.append(block)
        assert blocks[0] == raw >> shift
        assert blocks[1] == (raw >> shift) + (1 << 40)


class TestSingleTenantLane:
    def test_n1_lane_view_matches_own_snapshot(self):
        """One tenant is lane 0: after mixed accesses, prefetches, a flush and
        finalize calls, its lane view equals the hierarchy's own snapshot
        (cache-level counters are kept both per cache and per lane)."""
        hier = MemoryHierarchy(TINY)
        hier.set_stream_attribution({block: f"s{block % 3}" for block in range(0, 96, 2)})
        rng = random.Random(7)
        now = 0
        for i in range(400):
            now += 1 + hier.access(rng.randrange(96) * 64, now)
            if i % 3 == 0:
                hier.issue_prefetch(rng.randrange(96) * 64, now)
            if i == 150:
                hier.flush(now)
            if i == 300:
                hier.finalize(now)
        hier.finalize(now)
        snapshot = hier.stats_snapshot()
        # Non-vacuous: every kind of counter moved.
        assert snapshot.l1.hits and snapshot.l2.hits and snapshot.l2.evictions
        assert snapshot.prefetch.useful and snapshot.prefetch.wasted
        assert snapshot.stream_stats
        assert hier.view(0).stats_snapshot() == snapshot


class TestPollutionAccounting:
    @pytest.mark.parametrize("sharing", ["shared", "private-l1"])
    def test_matrix_reconciles_on_real_corun(self, sharing):
        plan = TenantPlan(
            tenants=(
                TenantSpec("vortex", "dyn", passes=1),
                TenantSpec("vpr", "dyn", passes=1),
            ),
            quantum=1024,
            sharing=sharing,
            machine=TINY,
        )
        result = run_tenant_plan(plan)
        assert result.pollution.total() == result.prefetch_shared_evictions
        assert (
            result.demand_shared_evictions + result.prefetch_shared_evictions
            == result.shared_cache_evictions
        )
        # Non-vacuous: this co-run really does pollute across tenants.
        assert result.prefetch_shared_evictions > 0
        assert result.pollution.suffered_by(0) + result.pollution.suffered_by(1) > 0
        # Per-tenant slices sum to the aggregate hierarchy snapshot counts.
        assert sum(t.hierarchy.demand_accesses for t in result.tenants) == sum(
            t.stats.memory_refs for t in result.tenants
        )

    def test_matrix_helpers(self):
        from repro.tenancy import PollutionMatrix

        matrix = PollutionMatrix({(0, 0): 5, (0, 1): 3, (1, 0): 2})
        assert matrix.total() == 10
        assert matrix.self_inflicted(0) == 5
        assert matrix.inflicted_by(0) == 3
        assert matrix.suffered_by(0) == 2
        assert matrix.get(1, 1) == 0


class TestFlush:
    def test_flush_empties_every_tenant_working_set(self):
        hier = TenantHierarchy(TINY, tenants=2, sharing="private-l1")
        for tid in (0, 1):
            hier.activate(tid)
            for i in range(8):
                hier.access(i * 64, now=i)
        hier.flush(now=100)
        for tid in (0, 1):
            hier.activate(tid)
            stall = hier.access(0, now=200)
            assert stall == TINY.memory_latency
