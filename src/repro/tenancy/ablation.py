"""The shared-L2 ablation: does dyn survive a thrashing co-tenant?

The ROADMAP's server-scale question, answered head-on.  Tenant A is ``vpr``
measured at three levels — no prefetching, unguarded dyn, and dyn with the
watchdog — while tenant B is always the adversarial ``phaseshift`` thrasher
running unguarded dyn (stale streams, maximal pollution pressure).  All
co-runs share one small L2 (per-tenant L1s), so B's evictions land directly
on A's working set and the pollution matrix says exactly how many.

Three questions, one table:

* *pressure*: how much slower is A under the thrasher than alone
  (``vs_solo_pct``), independent of A's own prefetching;
* *does dyn still pay*: A's dyn rows vs. A's nopref row, all under the same
  co-tenant (``vs_nopref_pct``);
* *containment*: the ``dyn+watchdog`` variant arms the watchdog on *both*
  tenants.  On A it is inert (vpr's streams stay accurate, zero deopts);
  on the thrasher it condemns the stale streams, and the pollution matrix
  measures exactly how much cross-tenant damage that claws back
  (``pol<thr`` — shared-L2 evictions of A's blocks caused by the
  thrasher's prefetches).
"""

from __future__ import annotations

from dataclasses import replace
from typing import Optional

from repro.bench.figures import (
    ABLATION_WATCHDOG_CONFIG,
    ABLATION_WATCHDOG_MACHINE,
    ABLATION_WATCHDOG_OPT,
)
from repro.engine.cache import ResultStore
from repro.engine.executor import execute_plan
from repro.engine.spec import RunPlan, RunSpec
from repro.tenancy.plan import TenantPlan, TenantSpec
from repro.tenancy.stats import TenancyResult

#: Round-robin quantum for the ablation co-runs (instructions).
ABLATION_QUANTUM = 2048


def _thrasher(passes: Optional[int], opt) -> TenantSpec:
    """The adversarial co-tenant: phaseshift at dyn."""
    return TenantSpec("phaseshift", "dyn", passes=passes, opt=opt, name="thrasher")


def tenancy_ablation_plans(passes: Optional[int] = None) -> list[tuple[str, TenantPlan]]:
    """The (label, plan) variants the ablation compares."""
    bare = ABLATION_WATCHDOG_OPT
    wd_opt = replace(bare, watchdog=ABLATION_WATCHDOG_CONFIG)
    variants: list[tuple[str, TenantSpec, TenantSpec]] = [
        ("nopref",
         TenantSpec("vpr", "nopref", passes=passes, opt=bare, name="vpr"),
         _thrasher(passes, bare)),
        ("dyn",
         TenantSpec("vpr", "dyn", passes=passes, opt=bare, name="vpr"),
         _thrasher(passes, bare)),
        ("dyn+watchdog",
         TenantSpec("vpr", "dyn", passes=passes, opt=wd_opt, name="vpr"),
         _thrasher(passes, wd_opt)),
    ]
    return [
        (
            label,
            TenantPlan(
                tenants=(spec_a, spec_b),
                quantum=ABLATION_QUANTUM,
                sharing="private-l1",
                machine=ABLATION_WATCHDOG_MACHINE,
            ),
        )
        for label, spec_a, spec_b in variants
    ]


def _solo(plan: TenantPlan) -> RunSpec:
    """Tenant A of ``plan`` alone on the plan's machine."""
    a = plan.tenants[0]
    return RunSpec(a.workload, a.level, passes=a.passes, machine=plan.machine, opt=a.opt)


def ablation_tenancy(
    passes: Optional[int] = None,
    store: Optional[ResultStore] = None,
    jobs: int = 1,
) -> list[dict]:
    """Per-variant rows for the shared-cache ablation table.

    ``vs_solo_pct`` normalizes each variant's tenant-A cycles against the
    same configuration run *alone* on the same machine (cache to itself);
    ``vs_nopref_pct`` normalizes against the nopref variant *under the same
    thrasher* — the in-contention analogue of Figure 12's overhead axis.
    The three co-runs and the three solo baselines run as one plan.
    """
    labelled = tenancy_ablation_plans(passes)
    plans = [plan for _, plan in labelled]
    results = execute_plan(RunPlan.of(*plans, *map(_solo, plans)), jobs=jobs, store=store)
    coruns, solos = results[: len(plans)], results[len(plans):]
    rows: list[dict] = []
    baseline_a = coruns[0].tenants[0]
    for (label, _plan), result, solo in zip(labelled, coruns, solos):
        a, b = result.tenants
        rows.append(
            {
                "variant": label,
                "cycles": a.stats.cycles,
                "solo_cycles": solo.stats.cycles,
                "vs_solo_pct": round(
                    100.0 * (a.stats.cycles - solo.stats.cycles) / solo.stats.cycles, 2
                ),
                "vs_nopref_pct": round(
                    100.0 * (a.stats.cycles - baseline_a.stats.cycles)
                    / baseline_a.stats.cycles, 2
                ),
                "issued": a.hierarchy.prefetch.issued,
                "useful": a.hierarchy.prefetch.useful,
                "wasted": a.hierarchy.prefetch.wasted,
                "deopts": 0 if a.summary is None else a.summary.stream_deopts,
                "thr_deopts": 0 if b.summary is None else b.summary.stream_deopts,
                "thr_wasted": b.hierarchy.prefetch.wasted,
                "polluted_by_thrasher": result.pollution.suffered_by(a.tenant_id),
                "thrasher_cycles": b.stats.cycles,
            }
        )
    return rows


def render_ablation(rows: list[dict]) -> str:
    """The ablation rows as an aligned table."""
    from repro.bench.reporting import format_table

    return format_table(
        ["variant", "cycles", "solo", "vs-solo%", "vs-nopref%", "issued",
         "useful", "wasted", "deopts", "thr-deopts", "thr-wasted", "pol<thr",
         "thr-cycles"],
        [
            [r["variant"], r["cycles"], r["solo_cycles"], r["vs_solo_pct"],
             r["vs_nopref_pct"], r["issued"], r["useful"], r["wasted"],
             r["deopts"], r["thr_deopts"], r["thr_wasted"],
             r["polluted_by_thrasher"], r["thrasher_cycles"]]
            for r in rows
        ],
        title="Shared-L2 tenancy ablation — vpr vs. the phaseshift thrasher",
    )


def check_result(result: TenancyResult) -> list[str]:
    """Re-verify a (possibly cache-replayed) result's accounting identities.

    The live scheduler already reconciles before returning; this re-checks
    the *serialized* counters, so a cache replay is held to the same
    standard.
    """
    problems: list[str] = []
    if result.pollution.total() != result.prefetch_shared_evictions:
        problems.append(
            f"pollution matrix total {result.pollution.total()} != "
            f"prefetch-caused shared evictions {result.prefetch_shared_evictions}"
        )
    cause_sum = result.demand_shared_evictions + result.prefetch_shared_evictions
    if cause_sum != result.shared_cache_evictions:
        problems.append(
            f"cause split {cause_sum} != shared-cache evictions "
            f"{result.shared_cache_evictions}"
        )
    occupancy = sum(t.stats.cycles for t in result.tenants)
    if occupancy != result.global_cycles:
        problems.append(
            f"tenant occupancy sum {occupancy} != global clock {result.global_cycles}"
        )
    return problems
