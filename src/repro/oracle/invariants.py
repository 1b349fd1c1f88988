"""Metamorphic invariants: reusable whole-run correctness checkers.

Each checker takes finished run artifacts (or runs a workload itself) and
raises :class:`~repro.errors.OracleError` on violation.  The invariants are
the repo's headline claims, stated as executable checks:

* :func:`check_conservation` — counter bookkeeping is conserved: every
  issued prefetch meets exactly one fate, every demand access probes L1
  exactly once, only L1 misses probe L2, stalls fit inside cycles.
* :func:`check_architectural_state` — prefetching (and all the machinery
  around it) never changes *architectural* state: the optimized run returns
  the same value and leaves the identical simulated memory image as the
  unmodified binary.
* :func:`check_observer_effect` — telemetry at full sampling is
  cycle-identical and counter-identical to no telemetry.
* :func:`check_disabled_resilience_identical` — a fault plan with zero
  rates injects nothing and perturbs nothing, bit-for-bit.
* :func:`check_relabel_invariance` — cache behaviour depends only on block
  geometry, not absolute addresses: shifting a raw trace by a multiple of
  both levels' set strides reproduces identical stalls and counters.
* :func:`check_checkpoint_resume_identity` — a run killed after writing an
  architectural-state checkpoint and later resumed from it finishes
  bit-identical to an uninterrupted run.
* :func:`check_fastpath_identity` — the compiled execution kernel
  (``repro.fastpath``) produces the same counters, per-stream attribution
  and serialized result as the reference dispatch loop.
"""

from __future__ import annotations

from dataclasses import replace
from typing import Callable, Optional, Sequence

from repro.bench.runner import RunResult, run_workload
from repro.core.config import OptimizerConfig
from repro.errors import OracleError
from repro.machine.config import MachineConfig, PAPER_MACHINE
from repro.machine.hierarchy import MemoryHierarchy
from repro.resilience.faults import FaultPlan
from repro.telemetry.session import TelemetrySession
from repro.workloads.base import BuiltWorkload

#: A workload factory; called fresh per run because runs mutate memory.
WorkloadFactory = Callable[[], BuiltWorkload]


def _require(condition: bool, message: str) -> None:
    if not condition:
        raise OracleError(message)


def check_conservation(result: RunResult, sw_prefetch_only: bool = True) -> None:
    """Counter-conservation invariants on one finished run."""
    stats, hier = result.stats, result.hierarchy
    pf = hier.prefetch
    tag = f"{result.workload}/{result.level}"
    classified = pf.redundant + pf.useful + pf.late + pf.wasted
    _require(
        pf.issued == classified,
        f"{tag}: prefetch fates not conserved: issued {pf.issued} != "
        f"redundant {pf.redundant} + useful {pf.useful} + late {pf.late} "
        f"+ wasted {pf.wasted} (run must be finalized)",
    )
    _require(
        hier.demand_accesses == stats.memory_refs,
        f"{tag}: hierarchy saw {hier.demand_accesses} demand accesses, "
        f"interpreter performed {stats.memory_refs} memory refs",
    )
    _require(
        hier.l1.accesses == hier.demand_accesses,
        f"{tag}: L1 probed {hier.l1.accesses} times for "
        f"{hier.demand_accesses} demand accesses",
    )
    _require(
        hier.l2.accesses == hier.l1.misses,
        f"{tag}: L2 probed {hier.l2.accesses} times for {hier.l1.misses} L1 misses",
    )
    if sw_prefetch_only:
        _require(
            stats.prefetches_issued == pf.issued,
            f"{tag}: interpreter issued {stats.prefetches_issued} prefetches, "
            f"hierarchy counted {pf.issued}",
        )
    _require(
        stats.cycles >= stats.instructions,
        f"{tag}: {stats.cycles} cycles < {stats.instructions} instructions",
    )
    _require(
        stats.mem_stall_cycles <= stats.cycles,
        f"{tag}: stall cycles {stats.mem_stall_cycles} exceed total {stats.cycles}",
    )


_COMPARED_COUNTERS = (
    "cycles",
    "instructions",
    "memory_refs",
    "mem_stall_cycles",
    "checks_executed",
    "bursts",
    "traced_refs",
    "detect_cycles",
    "detects_executed",
    "prefetches_issued",
    "charged_cycles",
    "return_value",
)


def run_fingerprint(result: RunResult) -> dict[str, int]:
    fp = {name: getattr(result.stats, name) for name in _COMPARED_COUNTERS}
    hier = result.hierarchy
    for level_name, cache in (("l1", hier.l1), ("l2", hier.l2)):
        fp[f"{level_name}.hits"] = cache.hits
        fp[f"{level_name}.misses"] = cache.misses
        fp[f"{level_name}.evictions"] = cache.evictions
    pf = hier.prefetch
    fp.update(
        issued=pf.issued, redundant=pf.redundant, useful=pf.useful,
        late=pf.late, wasted=pf.wasted,
    )
    return fp


def _diff_fingerprints(a: dict[str, int], b: dict[str, int], context: str) -> None:
    drifted = {k: (a[k], b[k]) for k in a if a[k] != b[k]}
    if drifted:
        raise OracleError(f"{context}: runs diverged on {drifted}")


def check_observer_effect(
    factory: WorkloadFactory,
    level: str = "dyn",
    machine: MachineConfig = PAPER_MACHINE,
    opt: Optional[OptimizerConfig] = None,
) -> None:
    """Telemetry at sampling period 1 must be bit-identical to none at all."""
    plain = run_workload(factory(), level, machine=machine, opt=opt)
    recorded = run_workload(
        factory(),
        level,
        machine=machine,
        opt=opt,
        telemetry=TelemetrySession.recording(miss_sample_every=1, prefetch_sample_every=1),
    )
    _diff_fingerprints(
        run_fingerprint(plain),
        run_fingerprint(recorded),
        f"observer effect ({plain.workload}/{level})",
    )


def check_tracing_observer_effect(
    factory: WorkloadFactory,
    level: str = "dyn",
    machine: MachineConfig = PAPER_MACHINE,
    opt: Optional[OptimizerConfig] = None,
) -> None:
    """Span tracing + the prefetch ledger must not perturb the simulation.

    Runs with the full tracing stack armed (spans, lifecycle ledger, full
    sampling) and requires a bit-identical fingerprint, then holds the
    ledger to its own books: every fate count must reconcile exactly with
    the hierarchy's :class:`PrefetchStats`, aggregate and per stream.
    """
    from repro.telemetry.sinks import ListSink

    plain = run_workload(factory(), level, machine=machine, opt=opt)
    session = TelemetrySession(
        sinks=[ListSink()],
        miss_sample_every=1,
        prefetch_sample_every=1,
        tracing=True,
        track_prefetches=True,
    )
    traced = run_workload(factory(), level, machine=machine, opt=opt, telemetry=session)
    _diff_fingerprints(
        run_fingerprint(plain),
        run_fingerprint(traced),
        f"tracing observer effect ({plain.workload}/{level})",
    )
    mismatches = session.ledger.reconcile(
        traced.hierarchy.prefetch, traced.hierarchy.stream_stats
    )
    _require(
        not mismatches,
        f"prefetch ledger out of balance ({plain.workload}/{level}): " + "; ".join(mismatches),
    )


def check_cache_replay_identity(spec=None) -> None:
    """A cached replay must be bit-identical to the live run it memoized.

    Runs ``spec`` (default: vortex/dyn, one pass) twice against a throwaway
    :class:`~repro.engine.cache.ResultStore`: the first simulates and stores,
    the second must replay — with an identical counter fingerprint *and* an
    identical full serialization (``to_dict``), which is the engine's license
    to substitute replays for simulations everywhere.
    """
    import tempfile

    from repro.engine.cache import ResultStore
    from repro.engine.executor import run_spec
    from repro.engine.spec import RunSpec

    spec = spec if spec is not None else RunSpec("vortex", "dyn", passes=1)
    with tempfile.TemporaryDirectory() as tmp:
        store = ResultStore(tmp)
        live = run_spec(spec, store=store)
        replay = run_spec(spec, store=store)
        context = f"cache replay ({spec.label})"
        _require(not live.from_cache, f"{context}: first run hit an empty cache")
        _require(replay.from_cache, f"{context}: second run missed the cache")
        _diff_fingerprints(run_fingerprint(live), run_fingerprint(replay), context)
        _require(
            live.to_dict() == replay.to_dict(),
            f"{context}: serialized results differ beyond the counter fingerprint",
        )


def check_checkpoint_resume_identity(spec=None) -> None:
    """A crash-resumed run must be bit-identical to an uninterrupted one.

    Drives ``spec`` (default: vortex/dyn, one pass) through the durable
    runner with a small checkpoint cadence and kills it (via the
    ``stop_after_checkpoints`` crash hook) after its first checkpoint; a
    second call must restore that checkpoint — proven by a
    ``CheckpointLoaded`` event — and finish with a counter fingerprint *and*
    full serialization (``to_dict``) identical to a straight-through run.
    This is the durability layer's license to substitute resumed runs for
    uninterrupted ones everywhere.
    """
    import tempfile
    from pathlib import Path

    from repro.durability.runner import run_spec_durable
    from repro.engine.executor import run_spec
    from repro.engine.spec import RunSpec
    from repro.telemetry.events import EventBus
    from repro.telemetry.sinks import ListSink

    spec = spec if spec is not None else RunSpec("vortex", "dyn", passes=1)
    context = f"checkpoint resume ({spec.label})"
    straight = run_spec(spec)
    events = ListSink()
    bus = EventBus()
    bus.attach(events)
    with tempfile.TemporaryDirectory() as tmp:
        ckpt = Path(tmp) / "run.ckpt"
        interrupted = run_spec_durable(
            spec, ckpt, checkpoint_every=60_000, bus=bus, stop_after_checkpoints=1
        )
        _require(interrupted is None, f"{context}: run finished before the simulated crash")
        _require(ckpt.is_file(), f"{context}: no checkpoint survived the simulated crash")
        resumed = run_spec_durable(spec, ckpt, checkpoint_every=60_000, bus=bus)
        _require(resumed is not None, f"{context}: resumed run did not finish")
        counts = events.counts()
        _require(
            counts.get("CheckpointLoaded", 0) >= 1,
            f"{context}: resume recomputed from scratch instead of loading "
            f"the checkpoint (events: {counts})",
        )
        _require(
            not ckpt.is_file(),
            f"{context}: checkpoint not removed after successful completion",
        )
    _diff_fingerprints(run_fingerprint(straight), run_fingerprint(resumed), context)
    _require(
        straight.to_dict() == resumed.to_dict(),
        f"{context}: serialized results differ beyond the counter fingerprint",
    )


def check_cycle_attribution(result: RunResult, machine: MachineConfig = PAPER_MACHINE) -> None:
    """Per-category cycle attribution must sum exactly to the cycle count."""
    from repro.tracing.attribution import CycleAttribution

    att = CycleAttribution.from_run(result.stats, machine)
    _require(
        att.conserved,
        f"cycle attribution not conserved ({result.workload}/{result.level}): "
        f"attributed {att.attributed} of {att.total} "
        f"(unattributed {att.unattributed}): {att.to_dict()}",
    )


def check_disabled_resilience_identical(
    factory: WorkloadFactory,
    level: str = "dyn",
    machine: MachineConfig = PAPER_MACHINE,
    opt: Optional[OptimizerConfig] = None,
) -> None:
    """A zero-rate fault plan must not perturb the run in any way."""
    opt = opt if opt is not None else OptimizerConfig()
    inert = replace(opt, faults=FaultPlan(rate=0.0, record_corrupt_rate=0.0))
    baseline = run_workload(factory(), level, machine=machine, opt=opt)
    with_plan = run_workload(factory(), level, machine=machine, opt=inert)
    _require(
        with_plan.summary is None or with_plan.summary.faults_injected == 0,
        f"zero-rate fault plan injected {with_plan.summary.faults_injected} faults",
    )
    _diff_fingerprints(
        run_fingerprint(baseline),
        run_fingerprint(with_plan),
        f"inert fault plan ({baseline.workload}/{level})",
    )


def check_architectural_state(
    factory: WorkloadFactory,
    optimized_level: str = "dyn",
    machine: MachineConfig = PAPER_MACHINE,
    opt: Optional[OptimizerConfig] = None,
) -> None:
    """Prefetching must never change registers-as-observable or heap state.

    Runs the unmodified binary and the fully optimized pipeline on two fresh
    builds of the same workload and compares the entry procedure's return
    value and the complete final memory image, word for word.
    """
    orig_wl = factory()
    orig = run_workload(orig_wl, "orig", machine=machine, opt=opt)
    opt_wl = factory()
    optimized = run_workload(opt_wl, optimized_level, machine=machine, opt=opt)
    context = f"architectural state ({orig_wl.name}: orig vs {optimized_level})"
    _require(
        orig.stats.return_value == optimized.stats.return_value,
        f"{context}: return values differ: "
        f"{orig.stats.return_value} != {optimized.stats.return_value}",
    )
    words_a, words_b = orig_wl.memory._words, opt_wl.memory._words
    if words_a != words_b:
        changed = {
            addr: (words_a.get(addr, 0), words_b.get(addr, 0))
            for addr in set(words_a) | set(words_b)
            if words_a.get(addr, 0) != words_b.get(addr, 0)
        }
        sample = dict(sorted(changed.items())[:8])
        raise OracleError(
            f"{context}: {len(changed)} memory words differ, e.g. "
            + ", ".join(f"{a:#x}: {v}" for a, v in sample.items())
        )


def relabel_stride(machine: MachineConfig) -> int:
    """Smallest address shift guaranteed invisible to both cache levels.

    Both set counts are powers of two, so shifting every address by a
    multiple of ``max(sets) * block_bytes`` preserves each block's set index
    in L1 *and* L2 while keeping distinct blocks distinct.
    """
    max_sets = max(machine.l1.num_sets, machine.l2.num_sets)
    return max_sets * machine.block_bytes


def check_relabel_invariance(
    machine: MachineConfig,
    ops: Sequence[tuple[str, int]],
    multiples: Sequence[int] = (1, 7),
) -> None:
    """Replaying a raw op trace shifted by k * stride must be bit-identical.

    ``ops`` is a list of ``("access" | "prefetch" | "flush" | "finalize",
    addr)`` pairs; the cycle clock advances by each access's stall (plus one
    per op), like the interpreter's.
    """
    stride = relabel_stride(machine)

    def replay(offset: int) -> tuple[list[int], dict[str, int]]:
        hier = MemoryHierarchy(machine)
        now = 0
        stalls: list[int] = []
        for op, addr in ops:
            now += 1
            if op == "access":
                stall = hier.access(addr + offset, now)
                stalls.append(stall)
                now += stall
            elif op == "prefetch":
                hier.issue_prefetch(addr + offset, now)
            elif op == "flush":
                hier.flush(now)
            elif op == "finalize":
                hier.finalize(now)
            else:
                raise OracleError(f"unknown trace op {op!r}")
        hier.finalize(now)
        pf = hier.prefetch
        counters = {
            "l1.hits": hier.l1.hits, "l1.misses": hier.l1.misses,
            "l1.evictions": hier.l1.evictions, "l2.hits": hier.l2.hits,
            "l2.misses": hier.l2.misses, "l2.evictions": hier.l2.evictions,
            "issued": pf.issued, "redundant": pf.redundant, "useful": pf.useful,
            "late": pf.late, "wasted": pf.wasted,
        }
        return stalls, counters

    base_stalls, base_counters = replay(0)
    for k in multiples:
        stalls, counters = replay(k * stride)
        if stalls != base_stalls:
            i = next(i for i, (a, b) in enumerate(zip(base_stalls, stalls)) if a != b)
            raise OracleError(
                f"relabeling by {k}*{stride} changed stall #{i}: "
                f"{base_stalls[i]} -> {stalls[i]}"
            )
        _diff_fingerprints(base_counters, counters, f"relabeling by {k}*{stride}")


def check_tenancy_single_equivalence(
    workload: str = "vortex",
    level: str = "dyn",
    passes: Optional[int] = 1,
    quantum: int = 2048,
) -> None:
    """An N=1 tenancy co-run is bit-identical to the single-tenant path.

    Pinned headline claim of :mod:`repro.tenancy`: the scheduler's slicing,
    the shared hierarchy's per-tenant lanes and the tenant-scoped stats are
    all observationally invisible when there is nobody to share with.  The
    quantum is deliberately small so the run suspends/resumes many times;
    both sharing modes must agree with the plain ``run_workload`` result on
    the full serialized document — stats, hierarchy snapshot, per-stream
    attribution, optimizer summary and metrics.
    """
    from repro.tenancy import TenantPlan, TenantSpec, run_tenant_plan
    from repro.workloads import build_named

    single = run_workload(build_named(workload, passes=passes), level).to_dict()
    for sharing in ("shared", "private-l1"):
        plan = TenantPlan(
            tenants=(TenantSpec(workload, level, passes=passes),),
            quantum=quantum,
            sharing=sharing,
        )
        tenancy = run_tenant_plan(plan).as_single_run_result().to_dict()
        if tenancy != single:
            diff_keys = [k for k in single if tenancy.get(k) != single[k]]
            raise OracleError(
                f"N=1 tenancy ({sharing}, quantum={quantum}) diverged from the "
                f"single-tenant run for {workload}/{level}; differing keys: {diff_keys}"
            )


def _contended_plans(quantum: int, machine: Optional[MachineConfig]):
    """A two-tenant ``dyn`` co-run on a deliberately small shared hierarchy,
    one plan per sharing mode: small enough that the tenants evict each
    other's lines, demand- and prefetch-caused alike."""
    from repro.machine.config import CacheGeometry
    from repro.tenancy import TenantPlan, TenantSpec

    if machine is None:
        machine = MachineConfig(
            l1=CacheGeometry(512, 2),
            l2=CacheGeometry(4096, 4),
            l2_latency=10,
            memory_latency=100,
        )
    tenants = (
        TenantSpec("vortex", "dyn", passes=1),
        TenantSpec("vpr", "dyn", passes=1),
    )
    return [
        TenantPlan(tenants=tenants, quantum=quantum, sharing=sharing, machine=machine)
        for sharing in ("shared", "private-l1")
    ]


def check_tenancy_pollution_reconciliation(
    quantum: int = 1024,
    machine: Optional[MachineConfig] = None,
) -> None:
    """The pollution matrix reconciles exactly against eviction counts.

    Runs a two-tenant co-run (both at ``dyn``) on a deliberately small
    shared hierarchy, then checks the accounting identities on the
    *serialized* result: matrix total == prefetch-caused shared evictions,
    cause split sums to the shared caches' own eviction counters, tenant
    occupancies sum to the global clock — and that the check is not vacuous
    (the co-run really did evict shared lines via prefetches, in both
    sharing modes).
    """
    from repro.tenancy import run_tenant_plan
    from repro.tenancy.ablation import check_result

    for plan in _contended_plans(quantum, machine):
        result = run_tenant_plan(plan)
        problems = check_result(result)
        if problems:
            raise OracleError(
                f"tenancy accounting failed to reconcile ({plan.sharing}): "
                + "; ".join(problems)
            )
        _require(
            result.prefetch_shared_evictions > 0,
            f"pollution reconciliation is vacuous ({plan.sharing}): the co-run "
            "caused no prefetch-triggered shared evictions",
        )
        _require(
            result.pollution.suffered_by(0) + result.pollution.suffered_by(1) > 0,
            f"pollution reconciliation is vacuous ({plan.sharing}): no cross-tenant "
            "evictions occurred",
        )


def check_tenancy_fastpath_identity(
    quantum: int = 1024,
    machine: Optional[MachineConfig] = None,
) -> None:
    """A co-run on the compiled kernel is bit-identical to the reference.

    The kernel's inline memory path serves whichever tenant lane is active,
    so the contended two-tenant co-run of
    :func:`check_tenancy_pollution_reconciliation` — whose tenants evict
    each other's lines in both sharing modes — must serialize identically
    under both kernels: every tenant's stats and hierarchy view, the
    pollution matrix and the shared-eviction split.
    """
    from repro.tenancy import run_tenant_plan

    for plan in _contended_plans(quantum, machine):
        reference = run_tenant_plan(plan, fast=False).to_dict()
        compiled = run_tenant_plan(plan, fast=True).to_dict()
        drifted = sorted(k for k in reference if compiled.get(k) != reference[k])
        _require(
            not drifted,
            f"fastpath tenancy identity ({plan.sharing}): co-runs differ on {drifted}",
        )


def check_fastpath_identity(spec=None) -> None:
    """A compiled-fastpath run must be bit-identical to the reference run.

    Executes ``spec`` (default: vortex/dyn, one pass) twice on freshly built
    workloads — once forcing the reference dispatch loop (``fast=False``),
    once forcing the compiled kernel (``fast=True``), both bypassing the
    result store so neither leg can be satisfied by a replay — and requires
    an identical counter fingerprint, identical per-stream prefetch
    attribution, and an identical full serialization (``to_dict``).  This is
    ``repro.fastpath``'s license to substitute compiled execution for the
    reference interpreter everywhere.
    """
    from repro.engine.levels import execute_workload
    from repro.engine.spec import RunSpec

    spec = spec if spec is not None else RunSpec("vortex", "dyn", passes=1)
    context = f"fastpath identity ({spec.label})"
    reference = execute_workload(spec.build(), spec.level, spec.machine, spec.opt, fast=False)
    compiled = execute_workload(spec.build(), spec.level, spec.machine, spec.opt, fast=True)
    _diff_fingerprints(run_fingerprint(reference), run_fingerprint(compiled), context)

    def streams(result):
        return {
            key: (s.issued, s.useful, s.late, s.wasted, s.redundant)
            for key, s in result.hierarchy.stream_stats.items()
        }

    _require(
        streams(reference) == streams(compiled),
        f"{context}: per-stream prefetch attribution diverged "
        f"({streams(reference)} != {streams(compiled)})",
    )
    _require(
        reference.to_dict() == compiled.to_dict(),
        f"{context}: serialized results differ beyond the counter fingerprint",
    )


def check_streaming_trace_identity(spec=None) -> None:
    """A render of the loaded chunk log must equal a render of the live events.

    Runs ``spec`` (default: vortex/dyn, one pass) once with an in-memory
    sink and the chunk-log writer
    (:class:`~repro.obs.chunks.StreamingTraceSink`, with a deliberately tiny
    chunk bound so many seals occur) attached, and requires:

    * zero observer effect: the instrumented run is fingerprint-identical
      to a plain run of the same spec;
    * the log loads completely, and the Chrome trace laid out from it is
      byte-identical to the one laid out from the live event list and run
      summaries;
    * the Perfetto render of that trace parses to a nonzero packet count.
    """
    import json
    import tempfile
    from pathlib import Path

    from repro.engine.spec import RunSpec
    from repro.obs.chunks import StreamingTraceSink, load_chunk_events
    from repro.obs.perfetto import parse_packet_count, perfetto_trace
    from repro.obs.stream import split_runs
    from repro.telemetry.export import chrome_trace_document
    from repro.telemetry.sinks import ListSink

    spec = spec if spec is not None else RunSpec("vortex", "dyn", passes=1)
    context = f"streaming trace identity ({spec.label})"
    plain = run_workload(spec.build(), spec.level, machine=spec.machine, opt=spec.opt)
    with tempfile.TemporaryDirectory() as tmp_name:
        chunk_dir = Path(tmp_name) / "chunks"
        live = ListSink()
        stream = StreamingTraceSink(chunk_dir, max_bytes=1 << 14)
        session = TelemetrySession(
            sinks=[live, stream],
            miss_sample_every=1,
            prefetch_sample_every=1,
            tracing=True,
            proc_attribution=True,
        )
        streamed = run_workload(
            spec.build(), spec.level, machine=spec.machine, opt=spec.opt, telemetry=session
        )
        stream.close()
        _diff_fingerprints(run_fingerprint(plain), run_fingerprint(streamed), context)

        load_events, load = load_chunk_events(chunk_dir)
        _require(load.complete and load.ok, f"{context}: chunk load incomplete ({load.notes})")
        label = f"{streamed.workload}/{streamed.level}"
        rendered = chrome_trace_document([(label, live.events)], summaries=live.summaries)
        merged = chrome_trace_document(split_runs(load_events), summaries=load.summaries)
        _require(
            json.dumps(rendered, separators=(",", ":")) == json.dumps(merged, separators=(",", ":")),
            f"{context}: Chrome trace rendered from the chunk log differs from the live render",
        )
        packets = parse_packet_count(perfetto_trace(merged))
        _require(packets > 0, f"{context}: Perfetto render parsed to zero packets")


def check_proc_attribution(spec=None, machine: MachineConfig = PAPER_MACHINE) -> None:
    """Per-procedure attribution must sum exactly to the 7-category totals.

    Runs ``spec`` (default: vortex/dyn, one pass) with per-procedure
    recording on, through the reference interpreter and the compiled
    fastpath kernel, and requires:

    * per-procedure category columns sum exactly to the run's
      :class:`~repro.tracing.attribution.CycleAttribution` categories (the
      conservation-checked Figure 11 split gains a procedure dimension
      without losing a cycle);
    * reference and compiled execution produce identical per-procedure rows.
    """
    from repro.engine.levels import execute_workload
    from repro.engine.spec import RunSpec
    from repro.telemetry.sinks import ListSink
    from repro.tracing.attribution import CycleAttribution, ProcAttribution

    spec = spec if spec is not None else RunSpec("vortex", "dyn", passes=1)
    context = f"proc attribution ({spec.label})"

    def run(fast: bool):
        session = TelemetrySession(sinks=[ListSink()], proc_attribution=True)
        result = execute_workload(
            spec.build(), spec.level, spec.machine, spec.opt, telemetry=session, fast=fast
        )
        _require(
            session.proc_attr is not None,
            f"{context}: session recorded no per-procedure attribution",
        )
        return result, ProcAttribution.from_recorder(session.proc_attr, spec.machine)

    reference, ref_rows = run(fast=False)
    _compiled, fast_rows = run(fast=True)
    totals = CycleAttribution.from_run(reference.stats, spec.machine).to_dict()
    summed = ref_rows.totals()
    _require(
        summed == totals,
        f"{context}: per-procedure sums diverge from the run attribution "
        f"({summed} != {totals})",
    )
    _require(
        ref_rows.to_dict() == fast_rows.to_dict(),
        f"{context}: reference and fastpath per-procedure rows differ",
    )
