"""Differential suite: compiled fastpath kernel vs reference dispatch loop.

The fastpath contract (DESIGN.md §5h) is *bit-identity*, not approximate
agreement: for any workload, level, fault plan, slice partition, or limit,
executing through :mod:`repro.fastpath` must leave every observable —
ExecStats, hierarchy counters, per-stream prefetch attribution, telemetry
metrics, the serialized result — exactly equal to the reference interpreter.
These tests state that as data: the full (workload × level) grid, the
adversarial fault-injection configurations, multi-tenant co-runs, observed
runs (telemetry, ledger, attribution), error paths, and a hypothesis
property over arbitrary slice partitions.
"""

from dataclasses import replace

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.engine.levels import execute_workload
from repro.engine.spec import RunSpec
from repro.errors import MemoryFault
from repro.fastpath.compiler import clear_cache
from repro.interp.interpreter import Interpreter
from repro.machine.config import CacheGeometry, MachineConfig
from repro.resilience import FaultPlan, WatchdogConfig
from repro.telemetry.session import TelemetrySession
from repro.telemetry.sinks import ListSink
from repro.tenancy import TenantPlan, TenantSpec, run_tenant_plan
from repro.tenancy import scheduler
from repro.tenancy.hierarchy import TenantHierarchy
from repro.tracing.attribution import ProcAttribution
from repro.workloads import build_named, names
from repro.workloads.chainmix import build_chainmix

MACHINE = MachineConfig(
    l1=CacheGeometry(512, 2),
    l2=CacheGeometry(4096, 4),
    l2_latency=10,
    memory_latency=100,
)

ALL_WORKLOADS = (*names(), "phaseshift")
GRID_LEVELS = ("orig", "base", "stride", "markov", "dyn")
#: The remaining ladder levels, exercised on one representative workload.
EXTRA_LEVELS = ("prof", "hds", "nopref", "seq", "static")


def hierarchy_snapshot(hier):
    """Every hierarchy observable the run can influence, as plain data."""
    return {
        "l1": (hier.l1.hits, hier.l1.misses, hier.l1.evictions),
        "l2": (hier.l2.hits, hier.l2.misses, hier.l2.evictions),
        "demand": hier.demand_accesses,
        "prefetch": (
            hier.prefetch.issued,
            hier.prefetch.useful,
            hier.prefetch.late,
            hier.prefetch.wasted,
            hier.prefetch.redundant,
            dict(hier.prefetch.by_source),
        ),
        "streams": {
            key: (s.issued, s.useful, s.late, s.wasted, s.redundant)
            for key, s in hier.stream_stats.items()
        },
        # The compiled inline path batches the active lane's level counters
        # apart from the caches' own; every lane must come out the same.
        "lanes": [hier.view(t) for t in range(hier.num_tenants)],
        "shared_evictions": (hier.demand_shared_evictions, hier.prefetch_shared_evictions),
        "pollution": dict(hier.pollution_counts),
    }


def result_snapshot(result):
    return (result.to_dict(), hierarchy_snapshot(result.hierarchy))


def both_ways(workload_name, level, passes=1, opt=None, machine=None):
    """Execute one cell fresh under each kernel; return both snapshots."""
    kwargs = {}
    if opt is not None:
        kwargs["opt"] = opt
    if machine is not None:
        kwargs["machine"] = machine
    reference = execute_workload(
        build_named(workload_name, passes=passes), level, fast=False, **kwargs
    )
    compiled = execute_workload(
        build_named(workload_name, passes=passes), level, fast=True, **kwargs
    )
    return result_snapshot(reference), result_snapshot(compiled)


class TestGridEquivalence:
    @pytest.mark.parametrize("workload", ALL_WORKLOADS)
    @pytest.mark.parametrize("level", GRID_LEVELS)
    def test_workload_level_cell(self, workload, level):
        reference, compiled = both_ways(workload, level)
        assert compiled == reference

    @pytest.mark.parametrize("level", EXTRA_LEVELS)
    def test_remaining_ladder_levels(self, level):
        reference, compiled = both_ways("vortex", level)
        assert compiled == reference


class TestFaultConfigEquivalence:
    """Adversarial resilience plans must not open a reference/fastpath gap."""

    @pytest.mark.parametrize("seed", (3, 11))
    def test_full_rate_fault_plan(self, small_params, small_opt, seed):
        opt = replace(small_opt, faults=FaultPlan(seed=seed, rate=1.0))
        runs = {}
        for fast in (False, True):
            workload = build_chainmix(small_params)
            runs[fast] = result_snapshot(
                execute_workload(workload, "dyn", MACHINE, opt, fast=fast)
            )
        assert runs[True] == runs[False]

    def test_fault_plan_with_watchdog(self, small_params, small_opt):
        opt = replace(
            small_opt,
            faults=FaultPlan(seed=5, rate=0.6, max_per_kind=3),
            watchdog=WatchdogConfig(),
        )
        runs = {}
        for fast in (False, True):
            workload = build_chainmix(small_params)
            runs[fast] = result_snapshot(
                execute_workload(workload, "dyn", MACHINE, opt, fast=fast)
            )
        assert runs[True] == runs[False]


#: The three-tenant mix of the tenancy CI smoke plan: a prefetching tenant,
#: a plain one and the phase-shifting thrasher.
TENANT_MIX = (("vpr", "dyn"), ("twolf", "orig"), ("phaseshift", "dyn"))


def co_run(sharing, quantum, fast, monkeypatch):
    """Run the mix on MACHINE; the result and its hierarchy's snapshot."""
    built = []

    def capture(*args):
        hier = TenantHierarchy(*args)
        built.append(hier)
        return hier

    monkeypatch.setattr(scheduler, "TenantHierarchy", capture)
    plan = TenantPlan(
        tenants=tuple(TenantSpec(w, level, passes=1) for w, level in TENANT_MIX),
        quantum=quantum,
        sharing=sharing,
        machine=MACHINE,
    )
    result = run_tenant_plan(plan, fast=fast)
    return result.to_dict(), hierarchy_snapshot(built[0])


class TestTenancyEquivalence:
    """Every tenant runs on its own lane of one hierarchy; the inline memory
    path must serve each lane exactly, including evictions across lanes."""

    @pytest.mark.parametrize("sharing", ("shared", "private-l1"))
    @pytest.mark.parametrize("quantum", (37, 2048))
    def test_three_tenant_mix(self, sharing, quantum, monkeypatch):
        reference = co_run(sharing, quantum, False, monkeypatch)
        compiled = co_run(sharing, quantum, True, monkeypatch)
        assert compiled == reference
        # The machine is small enough that lanes evict each other's lines.
        assert reference[1]["shared_evictions"][0] > 0
        assert reference[1]["pollution"]


class TestObservedRunEquivalence:
    def test_dyn_run_with_every_observer(self):
        """Telemetry, span tracing, the ledger and attribution observe the
        compiled kernel's run exactly as they observe the reference one."""
        spec = RunSpec("vpr", "dyn", passes=1)
        runs = {}
        for fast in (False, True):
            session = TelemetrySession(
                sinks=[ListSink()],
                tracing=True,
                track_prefetches=True,
                proc_attribution=True,
            )
            result = execute_workload(
                spec.build(), spec.level, spec.machine, spec.opt,
                telemetry=session, fast=fast,
            )
            runs[fast] = (
                result_snapshot(result),
                [event.to_record() for event in session.events],
                session.ledger.records,
                ProcAttribution.from_recorder(session.proc_attr, spec.machine).to_dict(),
            )
        assert runs[True] == runs[False]
        assert runs[True][2], "the ledger recorded no prefetches"


class TestPatchedHierarchy:
    def test_instance_patched_access_runs_on_reference_loop(self, small_params, monkeypatch):
        """A hierarchy whose ``access`` is patched on the instance must see
        every demand access, so the compiled kernel steps aside."""
        def forbid(*args):
            raise AssertionError("compiled a kernel for a patched hierarchy")

        reference, args = _fresh_interp(small_params)
        stats_ref = reference.run(args, fast=False)
        interp, args = _fresh_interp(small_params)
        hier = interp.hierarchy
        seen = []
        original = hier.access

        def access(addr, now):
            seen.append(addr)
            return original(addr, now)

        hier.access = access
        monkeypatch.setattr("repro.fastpath.kernel.compiled_entry", forbid)
        stats = interp.run(args, fast=True)
        assert stats.to_dict() == stats_ref.to_dict()
        assert len(seen) == stats.memory_refs == hier.demand_accesses
        assert hierarchy_snapshot(hier) == hierarchy_snapshot(reference.hierarchy)


def _fresh_interp(small_params):
    workload = build_chainmix(small_params)
    return Interpreter(workload.program, workload.memory, MACHINE), workload.args


class TestCompiledCodeMemo:
    def test_memo_is_keyed_by_procedure_not_address(self, monkeypatch):
        """The dynamic editor frees patched-out procedure copies mid-run, and
        a new copy can reuse a freed copy's address.  Making every ``id()``
        in the kernel collide turns any address-keyed memo into one that
        runs the wrong procedure's compiled code."""
        monkeypatch.setattr("repro.fastpath.kernel.id", lambda o: 0, raising=False)
        reference, compiled = both_ways("vortex", "dyn")
        assert compiled == reference


class TestSliceComposition:
    @settings(
        max_examples=25,
        deadline=None,
        suppress_health_check=[HealthCheck.function_scoped_fixture],
    )
    @given(
        a=st.integers(min_value=1, max_value=4_000),
        b=st.integers(min_value=1, max_value=4_000),
    )
    def test_split_budget_equals_joint_budget_fast(self, small_params, a, b):
        """Under the fastpath, run_slice(a + b) parks exactly where
        run_slice(a); run_slice(b) does — icount, cycles, cache counters."""
        joint, args = _fresh_interp(small_params)
        joint.start(args)
        joint.run_slice(a + b, fast=True)
        split, args = _fresh_interp(small_params)
        split.start(args)
        split.run_slice(a, fast=True)
        split.run_slice(b, fast=True)
        js, ss = joint.exec_state, split.exec_state
        assert (js.icount, js.cycles, js.ip, js.regs) == (ss.icount, ss.cycles, ss.ip, ss.regs)
        assert hierarchy_snapshot(joint.hierarchy) == hierarchy_snapshot(split.hierarchy)

    @settings(
        max_examples=10,
        deadline=None,
        suppress_health_check=[HealthCheck.function_scoped_fixture],
    )
    @given(budget=st.integers(min_value=1, max_value=3_000))
    def test_mixed_kernel_slices_compose(self, small_params, budget):
        """Alternating kernels *between* slices is still one exact run."""
        whole, args = _fresh_interp(small_params)
        stats_whole = whole.run(args, fast=False)
        mixed, args = _fresh_interp(small_params)
        mixed.start(args)
        fast = True
        out = None
        while out is None:
            out = mixed.run_slice(budget, fast=fast)
            fast = not fast
        assert out.to_dict() == stats_whole.to_dict()
        assert hierarchy_snapshot(mixed.hierarchy) == hierarchy_snapshot(whole.hierarchy)

    def test_single_instruction_slices(self, small_params):
        """budget=1 forces the kernel's reference single-step resync on
        every instruction — the hardest park/resume pattern there is."""
        params = replace(small_params, passes=1, schedule_len=8)
        whole, args = _fresh_interp(params)
        stats_whole = whole.run(args, fast=False)
        stepped, args = _fresh_interp(params)
        stepped.start(args)
        out = None
        while out is None:
            out = stepped.run_slice(1, fast=True)
        assert out.to_dict() == stats_whole.to_dict()


class TestErrorPathEquivalence:
    def test_memory_fault_message_and_state(self):
        from repro.ir.builder import ProcedureBuilder, build_program
        from repro.machine.memory import Memory

        def build():
            b = ProcedureBuilder("crash", params=("base",))
            v = b.reg("v")
            b.load(v, b.param("base"), 0)      # aligned: succeeds
            b.load(v, b.param("base"), 2)      # misaligned: faults
            b.ret(v)
            prog = build_program([b.build()], entry="crash")
            mem = Memory()
            base = mem.allocate(64)
            return Interpreter(prog, mem, MACHINE), base

        errors = {}
        counters = {}
        for fast in (False, True):
            interp, base = build()
            with pytest.raises(MemoryFault) as exc_info:
                interp.run((base,), fast=fast)
            errors[fast] = str(exc_info.value)
            counters[fast] = hierarchy_snapshot(interp.hierarchy)
        assert errors[True] == errors[False]
        assert counters[True] == counters[False]


class TestToggle:
    def test_default_run_uses_compiled_kernel(self, small_params, monkeypatch):
        """``fast`` defaults to the compiled kernel; results equal the
        reference loop's."""
        from repro.fastpath import kernel

        calls = []
        real = kernel.run_fast
        monkeypatch.setattr(
            kernel, "run_fast", lambda *a, **k: calls.append(1) or real(*a, **k)
        )
        interp, args = _fresh_interp(small_params)
        compiled = interp.run(args)
        assert calls
        interp, args = _fresh_interp(small_params)
        assert compiled.to_dict() == interp.run(args, fast=False).to_dict()

    def test_clear_cache_recompiles(self, small_params):
        interp, args = _fresh_interp(small_params)
        reference = interp.run(args, fast=False)
        clear_cache()
        interp, args = _fresh_interp(small_params)
        compiled = interp.run(args, fast=True)
        clear_cache()
        assert compiled.to_dict() == reference.to_dict()
