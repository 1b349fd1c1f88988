"""Experiment engine: declarative run specs, memoized results, parallel execution.

The evaluation of the paper is a grid of (workload × level × config)
simulator runs — Figures 11/12 and Table 2 alone are ~70 executions.  This
package turns that grid into data:

- :mod:`repro.engine.spec` — :class:`RunSpec` freezes *everything* that
  determines a run's outcome (workload, level, pass count, machine model,
  optimizer config) into one serializable value with a deterministic
  content fingerprint.  It is one kind of job; a tenancy co-run
  (:class:`~repro.tenancy.plan.TenantPlan`) is the other, fingerprinted by
  the same recipe.  :class:`RunPlan` is an ordered batch of jobs.
- :mod:`repro.engine.levels` — the declarative measurement-level registry.
  Each :class:`LevelSpec` describes its instrumentation, optimizer wiring
  and configuration derivation, replacing the old if/elif ladder in
  :mod:`repro.bench.runner`; new levels plug in via :func:`register_level`.
- :mod:`repro.engine.result` — :class:`RunResult` with a bit-identical
  ``to_dict``/``from_dict`` round trip.
- :mod:`repro.engine.cache` — :class:`ResultStore`, a content-addressed
  on-disk result cache under ``.repro-cache/`` keyed by job fingerprint
  (plus a code-version salt, so editing the simulator invalidates
  everything it could have influenced); ``load(job)``/``store(job,
  result)`` serve both kinds.
- :mod:`repro.engine.executor` — :func:`execute_plan` (a whole plan of
  either kind of job, optionally across a process pool, with per-run crash
  retry and deterministic result ordering) and :func:`run_spec`, its
  one-job case.

The bench layer (:mod:`repro.bench`) and the golden-corpus oracle
(:mod:`repro.oracle.golden`) are thin consumers of this package;
``run_workload``/``run_level`` keep their historical signatures as
compatibility wrappers.
"""

from repro.engine.cache import ResultStore
from repro.engine.executor import execute_plan, run_spec
from repro.engine.levels import (
    LEVELS,
    LevelSpec,
    configure_level,
    execute_workload,
    get_level,
    level_names,
    register_level,
)
from repro.engine.result import RunResult
from repro.engine.spec import RunPlan, RunSpec, code_version

__all__ = [
    "LEVELS",
    "LevelSpec",
    "ResultStore",
    "RunPlan",
    "RunResult",
    "RunSpec",
    "code_version",
    "configure_level",
    "execute_plan",
    "execute_workload",
    "get_level",
    "level_names",
    "register_level",
    "run_spec",
]
