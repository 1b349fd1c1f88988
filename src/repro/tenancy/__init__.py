"""Multi-tenant interleaved execution on a shared memory hierarchy.

Answers the ROADMAP's server-scale question: does dynamic hot-data-stream
prefetching still pay off when other tenants contend for shared cache
capacity — and when one of them is an adversarial thrasher?

Tenants run on the one memory hierarchy,
:class:`~repro.machine.hierarchy.MemoryHierarchy`, built with a lane per
tenant; this package schedules them and reports on them.

* :mod:`repro.tenancy.plan` — :class:`TenantPlan`/:class:`TenantSpec`:
  frozen, fingerprintable co-run descriptions.
* :mod:`repro.tenancy.hierarchy` — :class:`TenantHierarchy`: the shared
  hierarchy the scheduler builds; its tenant lanes, tenant-scoped
  attribution and cross-tenant pollution matrix are
  :class:`~repro.machine.hierarchy.MemoryHierarchy`'s own.
* :mod:`repro.tenancy.scheduler` — deterministic round-robin interleaving,
  result-store memoization, multi-process plan execution.
* :mod:`repro.tenancy.stats` — :class:`TenantStats`/:class:`TenancyResult`/
  :class:`PollutionMatrix`, all JSON-round-trippable.
* :mod:`repro.tenancy.scorecard` — the ``repro-bench tenancy`` per-tenant
  scorecard and pollution-matrix rendering.
* :mod:`repro.tenancy.ablation` — dyn-vs-off under a thrashing co-tenant,
  with and without the watchdog (EXPERIMENTS.md §tenancy).
"""

from repro.tenancy.hierarchy import TenantHierarchy
from repro.tenancy.plan import SHARING_MODES, TenantPlan, TenantSpec
from repro.tenancy.scheduler import (
    execute_tenant_plans,
    run_tenant_plan,
    run_tenant_plan_cached,
)
from repro.tenancy.stats import PollutionMatrix, TenancyResult, TenantStats

__all__ = [
    "SHARING_MODES",
    "PollutionMatrix",
    "TenancyResult",
    "TenantHierarchy",
    "TenantPlan",
    "TenantSpec",
    "TenantStats",
    "execute_tenant_plans",
    "run_tenant_plan",
    "run_tenant_plan_cached",
]
