"""Deterministic round-robin execution of a :class:`TenantPlan`.

Each tenant is set up exactly the way :func:`repro.engine.levels.execute_workload`
sets up a single run — same instrumentation, same level attach hook, same
telemetry wiring — except that every interpreter is constructed over one
shared :class:`~repro.tenancy.hierarchy.TenantHierarchy` (the one memory
hierarchy, with a lane per tenant) and started in sliced mode.  The
scheduler then grants quantum-sized instruction slices in fixed tenant
order, carrying one global cycle clock across slices: before a tenant runs,
its parked clock is advanced to "now", so its memory operations land on the
shared caches at globally ordered times; after the slice, the cycles it
consumed advance the global clock for everyone else.

Determinism falls out of construction: no wall-clock, no OS threads, one
fixed interleaving — the same plan always produces byte-identical results.
A tenant's reported ``stats.cycles`` is its *occupancy* (cycles of machine
time it consumed), which for N=1 equals the global clock — that is the
pinned N=1 equivalence.

A plan is a job like a single run (``TenantPlan.run`` calls
:func:`run_tenant_plan`), so caching and process fan-out are the engine's:
:func:`repro.engine.executor.execute_plan` replays co-runs from the
:class:`~repro.engine.cache.ResultStore` and runs the misses, in one plan
with single runs if need be.
"""

from __future__ import annotations

from dataclasses import replace
from typing import Optional, Sequence

from repro.engine.levels import LevelWiring, get_level
from repro.errors import ConfigError
from repro.interp.interpreter import Interpreter
from repro.telemetry.session import TelemetrySession
from repro.tenancy.hierarchy import TenantHierarchy
from repro.tenancy.plan import TenantPlan
from repro.tenancy.stats import PollutionMatrix, TenancyResult, TenantStats
from repro.vulcan.static_edit import instrument_program
from repro.workloads import build_named


def run_tenant_plan(
    plan: TenantPlan,
    sessions: Optional[Sequence[TelemetrySession]] = None,
    fast: bool = True,
) -> TenancyResult:
    """Interleave the plan's tenants to completion; returns their stats.

    ``sessions`` optionally supplies one pre-built telemetry session per
    tenant (event sinks and all); by default each tenant gets its own
    metrics-only session, mirroring the single-run engine.

    ``fast=False`` runs every tenant slice on the reference dispatch loop
    instead of the compiled kernel.  Each slice's kernel binds the lane of
    the tenant activated for it, so its inline memory paths serve that tenant;
    results stay bit-identical either way.
    """
    if sessions is not None and len(sessions) != len(plan):
        raise ConfigError(
            f"need one telemetry session per tenant ({len(plan)}), got {len(sessions)}"
        )
    hier = TenantHierarchy(plan.machine, len(plan), plan.sharing)
    interps: list[Interpreter] = []
    tenant_sessions: list[TelemetrySession] = []
    summaries: list[object] = []
    for tid, spec in enumerate(plan.tenants):
        level_spec = get_level(spec.level)
        opt = spec.opt
        if opt.faults is not None:
            # Per-tenant fault derivation: adding tenant K never perturbs
            # tenant J's fault sequence (satellite fix; tested).
            opt = replace(opt, faults=opt.faults.for_tenant(tid))
        session = sessions[tid] if sessions is not None else TelemetrySession()
        if not session.context:
            session.begin_run(plan.tenant_name(tid), spec.level)
        workload = build_named(spec.workload, passes=spec.passes)
        program = workload.program
        if level_spec.instrument:
            program, _report = instrument_program(program)
        interp = Interpreter(program, workload.memory, plan.machine, hierarchy=hier)
        # Wiring and component construction happen with this tenant active,
        # so the session's bus/ledger land in this tenant's lane.
        hier.activate(tid)
        session.wire(interp)
        summary = None
        if level_spec.attach is not None:
            derived = (
                level_spec.configure(opt) if level_spec.configure is not None else opt
            )
            summary = level_spec.attach(
                LevelWiring(interp=interp, machine=plan.machine, opt=derived)
            )
        interp.start(workload.args)
        interps.append(interp)
        tenant_sessions.append(session)
        summaries.append(summary)

    n = len(plan)
    finished: list[object] = [None] * n
    occupancy = [0] * n
    slices = [0] * n
    remaining = n
    global_now = 0
    while remaining:
        for tid in range(n):
            if finished[tid] is not None:
                continue
            hier.activate(tid)
            interp = interps[tid]
            # Park-and-resume: the tenant's clock continues from global
            # "now", so its cache traffic is ordered after everyone else's.
            interp.exec_state.cycles = global_now
            out = interp.run_slice(plan.quantum, fast=fast)
            occupancy[tid] += interp.exec_state.cycles - global_now
            global_now = interp.exec_state.cycles
            slices[tid] += 1
            if out is not None:
                finished[tid] = out
                remaining -= 1
    hier.finalize(now=global_now)

    tenants: list[TenantStats] = []
    for tid, spec in enumerate(plan.tenants):
        stats = finished[tid]
        # A tenant's cycle count is its occupancy, not the shared clock it
        # happened to finish at (identical for N=1).
        stats.cycles = occupancy[tid]
        view = hier.view(tid)
        metrics = tenant_sessions[tid].finalize_run(stats, view, summaries[tid])
        tenants.append(
            TenantStats(
                tenant_id=tid,
                name=plan.tenant_name(tid),
                workload=spec.workload,
                level=spec.level,
                stats=stats,
                hierarchy=view.stats_snapshot(),
                summary=summaries[tid],
                metrics=metrics,
                slices=slices[tid],
            )
        )
    problems = hier.check_reconciliation()
    if problems:
        raise ConfigError(
            "tenancy accounting failed to reconcile: " + "; ".join(problems)
        )
    return TenancyResult(
        plan=plan,
        tenants=tuple(tenants),
        pollution=PollutionMatrix(dict(hier.pollution_counts)),
        global_cycles=global_now,
        demand_shared_evictions=hier.demand_shared_evictions,
        prefetch_shared_evictions=hier.prefetch_shared_evictions,
        shared_cache_evictions=hier.shared_eviction_total(),
    )

