"""repro.oracle — differential and property-based verification subsystem.

Three layers, each usable on its own:

* **Reference models** (:mod:`~repro.oracle.refmodel`,
  :mod:`~repro.oracle.refgrammar`, :mod:`~repro.oracle.refstreams`) —
  deliberately simple, independently written implementations of the cache
  hierarchy, the Sequitur invariants and the exact hot-stream definition,
  cross-checked against the production code on randomized inputs.
* **Metamorphic invariants** (:mod:`~repro.oracle.invariants`) — reusable
  whole-run checkers: conservation laws, architectural-state preservation,
  the telemetry observer effect, inert fault plans, address relabeling.
* **Drivers** (:mod:`~repro.oracle.fuzz`, :mod:`~repro.oracle.golden`,
  :mod:`~repro.oracle.verify`) — seeded fuzzing with ddmin shrinking to
  minimal reproducers, the frozen golden corpus under ``tests/golden/``, and
  the ``repro-bench verify`` orchestration.

Every disagreement surfaces as :class:`~repro.errors.OracleError`.
"""

from repro.errors import OracleError
from repro.oracle.fuzz import (
    check_with_shrinking,
    diff_hierarchy,
    diff_sequitur,
    diff_streams,
    gen_hierarchy_ops,
    gen_periodic_trace,
    gen_trace,
    shrink_ops,
)
from repro.oracle.golden import (
    GOLDEN_RUNS,
    GoldenRun,
    check_corpus,
    default_golden_dir,
    record_corpus,
    verify_corpus,
)
from repro.oracle.invariants import (
    check_architectural_state,
    check_conservation,
    check_cycle_attribution,
    check_disabled_resilience_identical,
    check_observer_effect,
    check_relabel_invariance,
    check_tenancy_pollution_reconciliation,
    check_tenancy_single_equivalence,
    check_tracing_observer_effect,
    relabel_stride,
    run_fingerprint,
)
from repro.oracle.refgrammar import check_sequitur, ref_expand
from repro.oracle.refmodel import RefCache, RefHierarchy, RefPrefetchStats
from repro.oracle.refstreams import (
    check_hot_streams,
    ref_heat,
    ref_hot_substrings,
    ref_nonoverlapping_count,
)
from repro.oracle.verify import SectionResult, VerifyReport, run_verify

__all__ = [
    "OracleError",
    # reference models
    "RefCache",
    "RefHierarchy",
    "RefPrefetchStats",
    "ref_expand",
    "check_sequitur",
    "ref_nonoverlapping_count",
    "ref_heat",
    "ref_hot_substrings",
    "check_hot_streams",
    # metamorphic invariants
    "check_conservation",
    "check_cycle_attribution",
    "check_architectural_state",
    "check_observer_effect",
    "check_tracing_observer_effect",
    "check_disabled_resilience_identical",
    "check_relabel_invariance",
    "check_tenancy_single_equivalence",
    "check_tenancy_pollution_reconciliation",
    "relabel_stride",
    "run_fingerprint",
    # fuzzing
    "gen_hierarchy_ops",
    "gen_periodic_trace",
    "gen_trace",
    "diff_hierarchy",
    "diff_sequitur",
    "diff_streams",
    "shrink_ops",
    "check_with_shrinking",
    # golden corpus
    "GoldenRun",
    "GOLDEN_RUNS",
    "default_golden_dir",
    "record_corpus",
    "verify_corpus",
    "check_corpus",
    # driver
    "run_verify",
    "VerifyReport",
    "SectionResult",
]
