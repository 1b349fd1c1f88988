"""repro.tracing — causal observability for the simulator itself.

Three coordinated ledgers over one run (DESIGN §5d):

* :mod:`repro.tracing.spans` — a span tree on the simulated-cycle timeline
  (run → optimizer epoch → burst / analysis / injection / watchdog), emitted
  through the telemetry bus with a null-sink zero-overhead fast path;
* :mod:`repro.tracing.ledger` — the per-prefetch lifecycle ledger, following
  every issued prefetch from its originating hot stream to its terminal fate;
* :mod:`repro.tracing.attribution` — exact per-category cycle attribution
  (Figure 11's decomposition, conserved to the cycle).

:mod:`repro.tracing.explain` (imported on demand by the CLI, not here — it
pulls in the bench runner) turns all three into per-stream scorecards.
"""

from repro.tracing.attribution import CATEGORIES, CycleAttribution
from repro.tracing.ledger import (
    FATES,
    TERMINAL_FATES,
    PrefetchLedger,
    PrefetchRecord,
    StreamLedgerStats,
)
from repro.tracing.spans import NULL_TRACER, SPAN_CATEGORIES, SpanTracer

__all__ = [
    "CATEGORIES",
    "CycleAttribution",
    "FATES",
    "TERMINAL_FATES",
    "PrefetchLedger",
    "PrefetchRecord",
    "StreamLedgerStats",
    "NULL_TRACER",
    "SPAN_CATEGORIES",
    "SpanTracer",
]
