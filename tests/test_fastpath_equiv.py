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

import json
import operator
from collections import Counter
from dataclasses import replace

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.core.hwpref import MarkovPrefetcher, StridePrefetcher
from repro.engine.levels import (
    execute_workload,
    finish_workload,
    level_names,
    prepare_workload,
)
from repro.engine.spec import RunSpec
from repro.errors import MemoryFault
from repro.fastpath import compiler, kernel
from repro.fastpath.compiler import clear_cache, compiled_entry
from repro.interp import lowering
from repro.interp.interpreter import Interpreter
from repro.ir.builder import ProcedureBuilder, build_program
from repro.ir.instructions import (
    Alu,
    AluImm,
    Bnz,
    Call,
    Check,
    Cmp,
    Const,
    Load,
    Pc,
    Prefetch,
    Ret,
    Store,
)
from repro.ir.program import Procedure, Program
from repro.machine.config import CacheGeometry, MachineConfig
from repro.machine.memory import Memory
from repro.oracle.fuzz import KERNEL_FALLBACK, KERNEL_SAMPLED, kernel_case
from repro.resilience import FaultPlan, WatchdogConfig
from repro.telemetry.events import CacheMiss, PrefetchIssued, PrefetchUsed
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


def co_run(sharing, quantum, fast, monkeypatch, machine=MACHINE):
    """Run the mix on ``machine``; the result and its hierarchy's snapshot."""
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
        machine=machine,
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

    @pytest.mark.parametrize("sharing", ("shared", "private-l1"))
    def test_three_tenant_mix_on_the_paper_machine(self, sharing, monkeypatch):
        """Only an L1 the size of the paper's keeps blocks resident long
        enough for the handlers' prefetches to meet them: the inline
        redundant-prefetch path, on tenant lanes."""
        machine = MachineConfig()
        reference = co_run(sharing, 2048, False, monkeypatch, machine=machine)
        compiled = co_run(sharing, 2048, True, monkeypatch, machine=machine)
        assert compiled == reference
        _issued, _useful, _late, _wasted, redundant, _by_source = reference[1]["prefetch"]
        assert redundant


class TestInlineCoverage:
    """The kernel calls the hierarchy only for the cases its inline paths
    leave to it (DESIGN.md §5h).  A change that stays bit-identical but
    silently sends an inline case out of line passes every equivalence test
    above; it fails here."""

    @staticmethod
    def slow_call_cases(monkeypatch) -> Counter:
        """Classify every call the kernel makes to the ``access`` and
        ``issue_prefetch`` it binds from FastCtx, at call time."""
        cases: Counter = Counter()
        real_init = kernel.FastCtx.__init__

        def init(ctx, interp):
            real_init(ctx, interp)
            hier, access, issue_prefetch = ctx.hier, ctx.access, ctx.issue_prefetch

            def slow_access(addr, now):
                cases[kernel_case(hier, "access", addr, now)] += 1
                return access(addr, now)

            def slow_issue_prefetch(addr, now, source="sw"):
                cases[kernel_case(hier, "prefetch", addr, now)] += 1
                return issue_prefetch(addr, now, source)

            ctx.access = slow_access
            ctx.issue_prefetch = slow_issue_prefetch

        monkeypatch.setattr(kernel.FastCtx, "__init__", init)
        return cases

    # Both run on the paper's machine: in MACHINE's 512 B L1 no handler
    # prefetch meets a resident block, so none would be redundant.

    def test_dyn_run(self, monkeypatch):
        cases = self.slow_call_cases(monkeypatch)
        result = execute_workload(build_named("vpr", passes=1), "dyn", fast=True)
        assert cases and set(cases) <= set(KERNEL_FALLBACK), cases
        prefetch = result.hierarchy.prefetch
        assert prefetch.useful and prefetch.redundant

    @pytest.mark.parametrize("sharing", ("shared", "private-l1"))
    def test_tenant_mix(self, sharing, monkeypatch):
        cases = self.slow_call_cases(monkeypatch)
        _, snapshot = co_run(sharing, 2048, True, monkeypatch, machine=MachineConfig())
        assert cases and set(cases) <= set(KERNEL_FALLBACK), cases
        _issued, useful, _late, _wasted, redundant, _by_source = snapshot["prefetch"]
        assert useful and redundant

    def test_observed_dyn_run(self, monkeypatch):
        """With every observer on, the kernel still decides the inline cases
        itself and calls the hierarchy only for a fallback case or for the
        occurrence a sampling countdown picks, which emits its event."""
        cases = self.slow_call_cases(monkeypatch)
        session = TelemetrySession(
            sinks=[ListSink()], tracing=True, track_prefetches=True, proc_attribution=True
        )
        result = execute_workload(
            build_named("vpr", passes=1), "dyn", telemetry=session, fast=True
        )
        assert cases and set(cases) <= set(KERNEL_FALLBACK) | set(KERNEL_SAMPLED), cases
        sampled = sum(cases[case] for case in KERNEL_SAMPLED)
        emitted = sum(
            isinstance(event, (CacheMiss, PrefetchIssued, PrefetchUsed))
            for event in session.events
        )
        assert 0 < sampled <= emitted
        prefetch = result.hierarchy.prefetch
        assert prefetch.useful and prefetch.redundant and session.ledger.records


class TestObservedRunEquivalence:
    # One twolf pass ends before the optimizer installs a prefetch.
    @pytest.mark.parametrize("workload, passes", (("vpr", 1), ("twolf", 2)))
    @pytest.mark.parametrize("miss_every, prefetch_every", ((1, 1), (3, 5), (64, 32)))
    def test_dyn_run_with_every_observer(self, workload, passes, miss_every, prefetch_every):
        """Telemetry, span tracing, the ledger and attribution observe the
        compiled kernel's run exactly as they observe the reference one, at
        every sampling period: the kernel steps the countdowns of the cases
        it decides inline."""
        spec = RunSpec(workload, "dyn", passes=passes)
        runs = {}
        for fast in (False, True):
            session = TelemetrySession(
                sinks=[ListSink()],
                miss_sample_every=miss_every,
                prefetch_sample_every=prefetch_every,
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

    @staticmethod
    def spy(monkeypatch):
        """Every ``(proc, kernel)`` the trampoline compiles, and every key
        the emitter builds a kernel for."""
        compiled, emitted = [], []
        real_entry, real_emit = kernel.compiled_entry, compiler._emit

        def entry(proc, mode, hwkind):
            result = real_entry(proc, mode, hwkind)
            compiled.append((proc, result))
            return result

        def emit(*key):
            emitted.append(key)
            return real_emit(*key)

        monkeypatch.setattr(kernel, "compiled_entry", entry)
        monkeypatch.setattr(compiler, "_emit", emit)
        return compiled, emitted

    def test_each_shape_is_emitted_once(self, monkeypatch):
        """Each copy the dynamic editor injects after its shape's first
        build, and every procedure of a second build of the workload, only
        closes a built kernel over its own constants.  Every copy gets a
        kernel: none falls back to the reference loop."""
        clear_cache()
        compiled, emitted = self.spy(monkeypatch)
        execute_workload(build_named("vpr", passes=1), "dyn", fast=True)
        assert compiled and all(result is not None for _proc, result in compiled)
        copies = Counter(proc.name for proc in {proc for proc, _ in compiled})
        assert max(copies.values()) > 1, "the run injected no procedure copy"
        assert len(set(emitted)) == len(emitted) == len(compiler._MAKERS)
        assert len(emitted) < len(compiled)
        built = len(compiler._MAKERS)
        compiled.clear()
        emitted.clear()
        execute_workload(build_named("vpr", passes=1), "dyn", fast=True)
        assert compiled and all(result is not None for _proc, result in compiled)
        assert emitted == []
        assert len(compiler._MAKERS) == built

    @pytest.mark.parametrize("workload", ALL_WORKLOADS)
    def test_every_procedure_version_gets_a_kernel(self, workload):
        """An exception in the shape pass or the emitter would silently send
        a procedure to the reference loop; no procedure of any workload, at
        any level, in either version, may take that exit."""
        for level in level_names():
            interp = prepare_workload(build_named(workload, passes=1), level).interp
            hwkind = kernel.prefetcher_kind(interp.hw_prefetcher)
            for proc in interp.program.procedures.values():
                for mode in (0, 1):
                    assert compiled_entry(proc, mode, hwkind) is not None, (level, proc.name, mode)


def _signal_spy(monkeypatch) -> tuple[Counter, list]:
    """Spy on the compiled kernels of the runs that follow: count the
    signals every kernel returns, and list ``(len(state.stack), state.ip)``
    at each entry from the trampoline (not from a calling kernel), each of
    which returns one signal to the trampoline.  Each kernel
    ``compiled_entry`` hands a run is wrapped in a fresh ``CompiledMode``;
    the cached one is left alone."""
    returned: Counter = Counter()
    entered: list = []
    nesting = [0]
    real_entry = kernel.compiled_entry

    def entry(proc, mode, hwkind):
        compiled = real_entry(proc, mode, hwkind)
        if compiled is None:
            return None
        fn = compiled.fn

        def spy(ctx, state, limit):
            if not nesting[0]:
                entered.append((len(state.stack), state.ip))
            nesting[0] += 1
            try:
                sig = fn(ctx, state, limit)
            finally:
                nesting[0] -= 1
            returned[sig] += 1
            return sig

        return compiler.CompiledMode(spy, compiled.leaders, compiled.max_trace)

    monkeypatch.setattr(kernel, "compiled_entry", entry)
    return returned, entered


def _ring(memory, nodes):
    """Lay out a ring of ``nodes`` words 32 bytes apart in ``memory``, each
    pointing at the next, with the node's index in the word after it; its
    first node's address."""
    base = memory.allocate(nodes * 32)
    for i in range(nodes):
        memory.store(base + i * 32, base + (i + 1) % nodes * 32)
        memory.store(base + i * 32 + 4, i)
    return base


def _on_both_kernels(program, args_in):
    """Run ``program`` under each kernel, on fresh memory that
    ``args_in(memory)`` fills and returns the entry's arguments for; assert
    the runs' stats and hierarchy snapshots are equal and return the stats."""
    runs = {}
    for fast in (False, True):
        memory = Memory()
        interp = Interpreter(program, memory, MACHINE)
        stats = interp.run(args_in(memory), fast=fast)
        runs[fast] = (stats.to_dict(), hierarchy_snapshot(interp.hierarchy))
    assert runs[True] == runs[False]
    return stats


def _caller_loop(callee):
    """``main(head, iters)``: each trip calls ``callee(node)``, adds what it
    returns and steps ``node`` along the ring."""
    b = ProcedureBuilder("main", params=("head", "iters"))
    total, node, i, value = b.reg("total"), b.reg("node"), b.reg("i"), b.reg("value")
    b.const(total, 0)
    b.mov(node, b.param("head"))
    b.mov(i, b.param("iters"))
    b.label("loop")
    b.call(value, callee, (node,))
    b.add(total, total, value)
    b.load(node, node, 0)
    b.alui("sub", i, i, 1)
    b.bnz(i, "loop")
    b.ret(total)
    return b.build()


def _recursion():
    """``sum(p, n)``: the index words of ``n + 1`` ring nodes from ``p``
    on, one recursive call per node."""
    b = ProcedureBuilder("sum", params=("p", "n"))
    p, n = b.param("p"), b.param("n")
    value, rest = b.reg("value"), b.reg("rest")
    b.load(value, p, 4)
    b.bz(n, "done")
    b.alui("sub", n, n, 1)
    b.alui("add", p, p, 32)
    b.call(rest, "sum", (p, n))
    b.add(value, value, rest)
    b.label("done")
    b.ret(value)
    return b.build()


class TestDirectCalls:
    """A compiled CALL runs its callee's kernel in place and keeps its own
    registers in locals (DESIGN.md §5h); the trampoline runs the callee
    when it has no kernel and past ``CALL_DEPTH_CAP``."""

    @pytest.mark.parametrize(
        "workload, level", (("vpr", "base"), ("vpr", "dyn"), ("phaseshift", "dyn"))
    )
    def test_no_call_leaves_its_callee_to_the_trampoline(self, workload, level, monkeypatch):
        returned, entered = _signal_spy(monkeypatch)
        execute_workload(build_named(workload, passes=1), level, fast=True)
        # the trampoline entered no callee at its first instruction
        assert [e for e in entered if e[0] and e[1] == 0] == []
        # so callees returned to the kernels that called them
        assert returned[compiler.SIG_RET] > len(entered), (returned, len(entered))

    def test_recursion_past_the_depth_cap(self, monkeypatch):
        """Every call that makes the stack deeper than ``CALL_DEPTH_CAP``
        parks, and the trampoline runs its callee; the run stays exact."""
        depth = 300
        _returned, entered = _signal_spy(monkeypatch)
        main = ProcedureBuilder("main", params=("p", "n"))
        main.ret(main.call(main.reg("total"), "sum", (main.param("p"), main.param("n"))))
        program = build_program([main.build(), _recursion()], "main")
        stats = _on_both_kernels(program, lambda memory: (_ring(memory, depth + 1), depth))
        assert stats.return_value == sum(range(depth + 1))
        # main's call and every node's but the last's push the stack to 1..depth + 1
        callees = [frames for frames, ip in entered if frames and ip == 0]
        assert callees == list(range(compiler.CALL_DEPTH_CAP + 1, depth + 2))

    def test_callee_without_a_kernel(self, monkeypatch):
        """The shape pass refuses register ``True`` (register 1 to the
        reference loop), so each call parks its caller and the callee runs
        on the reference loop."""
        leaf = Procedure("leaf", 1, 2, [AluImm("add", True, 0, 5), Ret(1)], {})
        assert compiled_entry(leaf, 0, "") is None
        returned, entered = _signal_spy(monkeypatch)
        program = Program([_caller_loop("leaf"), leaf], "main")
        _on_both_kernels(program, lambda memory: (_ring(memory, 8), 40))
        assert returned == Counter({compiler.SIG_PARK: 40, compiler.SIG_RET: 1})
        # main's start and its return from each call
        assert len(entered) == 41

    def test_callee_evicts_the_callers_last_block(self):
        """The caller's memo of its last block does not outlive a call: the
        callee fills the block's L1 set twice over, so the caller's next
        access to the block misses."""
        evict = ProcedureBuilder("evict", params=("p",))
        evict.load(None, evict.param("p"), 256)
        evict.load(None, evict.param("p"), 512)
        evict.ret()
        main = ProcedureBuilder("main", params=("p",))
        first, again = main.reg("first"), main.reg("again")
        main.load(first, main.param("p"), 0)
        main.call(None, "evict", (main.param("p"),))
        main.load(again, main.param("p"), 0)
        main.ret(main.add(first, first, again))
        program = build_program([main.build(), evict.build()], "main")
        _on_both_kernels(program, lambda memory: (memory.allocate(1024),))

    @pytest.fixture(scope="class")
    def vpr_dyn(self):
        """vpr/dyn in one piece on the reference loop."""
        return result_snapshot(execute_workload(build_named("vpr", passes=1), "dyn", fast=False))

    @pytest.mark.parametrize("budget", (1, 7, 97, 2048))
    def test_slices_equal_the_run_in_one_piece(self, vpr_dyn, budget):
        """Slice limits park kernels inside nested direct calls; the
        trampoline resumes each frame where the reference would."""
        prepared = prepare_workload(build_named("vpr", passes=1), "dyn")
        prepared.interp.start(prepared.args)
        stats = None
        while stats is None:
            stats = prepared.interp.run_slice(budget)
        assert result_snapshot(finish_workload(prepared, stats)) == vpr_dyn


class _Handler:
    """A detect handler that prefetches the next block at every step."""

    def step(self, state, addr):
        return state + 1, (addr + 64,), 1


def _avg(a, b):
    return (a + b) // 2


def _never(a, b):
    return False


PC = Pc("p", 0)
LOOP = {"loop": 2}
#: Pairs whose runs agree: ``num_regs`` only decides which registers a
#: kernel binds, and one kernel for more registers than the procedure has
#: fails at entry; register ``True`` is register 1 to the reference loop,
#: but a kernel printed from it names a local nothing binds.
SAME_RESULT = {"num-regs", "bool-register"}


def _walk(load):
    """``p(base)``: eight trips of ``load``, each one stride further, with
    a check at the loop head."""
    return [
        Const(1, 8),
        Const(3, 64),
        Check(backedge=True),
        load,
        Alu("add", 0, 0, 3),
        AluImm("sub", 1, 1, 1),
        Bnz(1, "loop"),
        Ret(2),
    ]


#: ``leaf(addr)``: the word at ``addr``; the callee of the CALL pairs.
LEAF = Procedure("leaf", 1, 2, [Load(1, 0, 0, Pc("leaf", 0)), Ret(1)], {})


class _Variant:
    """A program ``p(base)``, which may call ``LEAF``, and how to run it.

    ``base`` points into the middle of a buffer whose words hold 1000 plus
    their offset from ``base``.  ``lower`` maps ALU and compare kinds to
    other functions in the lowered code; ``bursts`` alternates the checking
    and instrumented versions every few checks; ``hwpref`` attaches a
    hardware prefetcher."""

    def __init__(self, body, num_regs=4, lower=None, bursts=False, hwpref=None):
        self.body = body
        self.num_regs = num_regs
        self.lower = lower or {}
        self.bursts = bursts
        self.hwpref = hwpref

    def run(self, fast: bool):
        """``json.dumps`` of the run's stats and its hierarchy snapshot."""
        proc = Procedure("p", 1, self.num_regs, list(self.body), dict(LOOP))
        if self.bursts:
            proc.instrumented_body = list(self.body)
        checking = lowering.lower_body(proc.body, proc.labels, proc.name)
        for i, t in enumerate(checking):
            if t[0] in (lowering.OP_ALU, lowering.OP_ALUI, lowering.OP_CMP) and t[1] in self.lower:
                checking[i] = (t[0], self.lower[t[1]], *t[2:])
        proc._lowered = (checking, list(checking) if self.bursts else checking)
        memory = Memory()
        base = memory.allocate(1024) + 512
        for off in range(-512, 512, 4):
            memory.store(base + off, 1000 + off)
        interp = Interpreter(Program([proc, LEAF], "p"), memory, MACHINE)
        if self.bursts:
            interp.n_check0, interp.n_instr0 = 2, 1
        if self.hwpref is not None:
            interp.hw_prefetcher = self.hwpref()
        stats = interp.run((base,), fast=fast)
        return json.dumps(stats.to_dict()), hierarchy_snapshot(interp.hierarchy)


class _Quiet(StridePrefetcher):
    """A prefetcher the kernel does not inline (``hwkind == "other"``): it
    overrides ``observe`` and never prefetches."""

    def observe(self, pc, addr, now, hierarchy):
        pass


#: Pairs of programs that differ in exactly one thing the emitter prints or
#: branches on.  If the shape key left it out, whichever ran second would
#: run the first one's kernel.
SHAPE_PAIRS = {
    "alui-immediate": (
        _Variant([AluImm("add", 1, 0, 3), Ret(1)]),
        _Variant([AluImm("add", 1, 0, 4), Ret(1)]),
    ),
    "load-offset-sign": (
        _Variant([Load(1, 0, 8, PC), Ret(1)]),
        _Variant([Load(1, 0, -8, PC), Ret(1)]),
    ),
    "store-offset-sign": (
        _Variant([Store(0, 0, 8, PC), Load(1, 0, 8, Pc("p", 1)), Ret(1)]),
        _Variant([Store(0, 0, -8, PC), Load(1, 0, 8, Pc("p", 1)), Ret(1)]),
    ),
    "const-0xffff-0x10000": (
        _Variant([Const(1, 0xFFFF), Ret(1)]),
        _Variant([Const(1, 0x10000), Ret(1)]),
    ),
    "const-through-k": (
        _Variant([Const(1, 0x10000), Ret(1)]),
        _Variant([Const(1, -0x10001), Ret(1)]),
    ),
    "const-1-true": (
        _Variant([Const(1, 1), Ret(1)]),
        _Variant([Const(1, True), Ret(1)]),
    ),
    "const-1-1.0": (
        _Variant([Const(1, 1), Ret(1)]),
        _Variant([Const(1, 1.0), Ret(1)]),
    ),
    "traced": (
        _Variant([Load(1, 0, 0, PC), Ret(1)]),
        _Variant([Load(1, 0, 0, PC, traced=True), Ret(1)]),
    ),
    "detect-handler": (
        _Variant([Load(1, 0, 0, PC), Ret(1)]),
        _Variant([Load(1, 0, 0, PC, detect=_Handler()), Ret(1)]),
    ),
    "prefetch-0-1": (
        _Variant([Prefetch(()), Load(1, 0, 64, PC), Ret(1)]),
        _Variant([Prefetch((0x10000,)), Load(1, 0, 64, PC), Ret(1)]),
    ),
    "prefetch-1-2": (
        _Variant([Prefetch((0x10000,)), Load(1, 0, 64, PC), Ret(1)]),
        _Variant([Prefetch((0x10000, 0x10040)), Load(1, 0, 64, PC), Ret(1)]),
    ),
    "alu-operator": (
        _Variant([Alu("add", 1, 0, 0), Ret(1)]),
        _Variant([Alu("add", 1, 0, 0), Ret(1)], lower={operator.add: _avg}),
    ),
    "alui-operator": (
        _Variant([AluImm("add", 1, 0, 6), Ret(1)]),
        _Variant([AluImm("add", 1, 0, 6), Ret(1)], lower={operator.add: _avg}),
    ),
    "cmp-operator": (
        _Variant([Cmp("eq", 1, 0, 0), Ret(1)]),
        _Variant([Cmp("eq", 1, 0, 0), Ret(1)], lower={operator.eq: _never}),
    ),
    "call-dst": (
        _Variant([Call(1, "leaf", (0,)), Ret(1)]),
        _Variant([Call(2, "leaf", (0,)), Ret(1)]),
    ),
    "call-args": (
        _Variant([AluImm("add", 1, 0, 8), Call(2, "leaf", (0,)), Ret(2)]),
        _Variant([AluImm("add", 1, 0, 8), Call(2, "leaf", (1,)), Ret(2)]),
    ),
    "register": (
        _Variant([AluImm("add", 1, 0, 5), Ret(1)]),
        _Variant([AluImm("add", 2, 0, 5), Ret(1)]),
    ),
    "bool-register": (
        _Variant([AluImm("add", 1, 0, 5), Ret(1)]),
        _Variant([AluImm("add", True, 0, 5), Ret(1)]),
    ),
    "num-regs": (
        _Variant([AluImm("add", 1, 0, 5), Ret(1)], num_regs=2),
        _Variant([AluImm("add", 1, 0, 5), Ret(1)], num_regs=4),
    ),
    "mode": (
        _Variant(_walk(Load(2, 0, 0, PC)), bursts=True),
        _Variant(_walk(Load(2, 0, 0, PC))),
    ),
    "hwkind-none-stride": (
        _Variant(_walk(Load(2, 0, 0, PC))),
        _Variant(_walk(Load(2, 0, 0, PC)), hwpref=StridePrefetcher),
    ),
    "hwkind-stride-markov": (
        _Variant(_walk(Load(2, 0, 0, PC)), hwpref=StridePrefetcher),
        _Variant(_walk(Load(2, 0, 0, PC)), hwpref=MarkovPrefetcher),
    ),
    "hwkind-stride-other": (
        _Variant(_walk(Load(2, 0, 0, PC)), hwpref=StridePrefetcher),
        _Variant(_walk(Load(2, 0, 0, PC)), hwpref=_Quiet),
    ),
}


class TestShapeKey:
    """A kernel is built once per ``(shape, num_regs, mode, hwkind)`` and
    reused by every procedure version with that key, so the key must hold
    everything the emitter reads.  Each pair compiles back to back in one
    process, in both orders, and every run must equal the reference loop
    byte for byte."""

    @pytest.mark.parametrize("name", SHAPE_PAIRS)
    def test_pair_runs_its_own_kernel(self, name):
        pair = SHAPE_PAIRS[name]
        reference = [variant.run(fast=False) for variant in pair]
        assert (reference[0] == reference[1]) == (name in SAME_RESULT)
        for order in (pair, pair[::-1]):
            clear_cache()
            compiled = [variant.run(fast=True) for variant in order]
            expected = reference if order is pair else reference[::-1]
            assert compiled == expected


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

    @pytest.mark.parametrize(
        "instr", [AluImm("add", 2, 0, 5), Alu("add", 1, 0, 3)], ids=["write", "read"]
    )
    def test_register_past_num_regs_raises_on_both_kernels(self, instr):
        """A register at or above ``num_regs`` has no kernel: the run takes
        the reference loop, which raises IndexError."""
        proc = Procedure("p", 1, 2, [instr, Ret(1)], {})
        assert compiled_entry(proc, 0, "") is None
        for fast in (False, True):
            with pytest.raises(IndexError):
                Interpreter(Program([proc], "p"), Memory()).run((100,), fast=fast)


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
