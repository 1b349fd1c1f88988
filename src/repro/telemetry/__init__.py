"""Structured telemetry for the simulation stack (events, metrics, exporters).

Quick tour::

    from repro.telemetry import TelemetrySession
    from repro.bench.runner import run_level
    from repro.obs import StreamingTraceSink, load_chunk_events

    session = TelemetrySession(sinks=[StreamingTraceSink("run-log")])
    result = run_level("vpr", "dyn", telemetry=session)
    session.close()                       # seal the chunk log
    events, load = load_chunk_events("run-log")
    print(result.metrics["counters"])     # exact run metrics

The chunk directory of :mod:`repro.obs` is the one on-disk event format;
see :mod:`repro.telemetry.events` for the event taxonomy,
:mod:`repro.telemetry.metrics` for the metrics snapshot rendered from a
finished run, :mod:`repro.telemetry.export` for the metrics JSON and Chrome
trace views and :mod:`repro.telemetry.session` for wiring details.
"""

from repro.telemetry.events import (
    EVENT_TYPES,
    AnalysisCharged,
    BurstBegin,
    BurstEnd,
    CacheFlushed,
    CacheMiss,
    DfsmBackoff,
    DfsmBuilt,
    Event,
    EventBus,
    OptimizeCycle,
    PhaseTransition,
    PrefetchEvicted,
    PrefetchIssued,
    PrefetchUsed,
    RecordSkipped,
    RunBegin,
    RunEnd,
    from_record,
)
from repro.telemetry.export import write_metrics_json
from repro.telemetry.metrics import EventTally, run_metrics
from repro.telemetry.session import TelemetryRecorder, TelemetrySession
from repro.telemetry.sinks import NULL_SINK, ListSink, NullSink

__all__ = [
    "EVENT_TYPES",
    "Event",
    "EventBus",
    "from_record",
    "RunBegin",
    "RunEnd",
    "BurstBegin",
    "BurstEnd",
    "PhaseTransition",
    "AnalysisCharged",
    "OptimizeCycle",
    "DfsmBuilt",
    "DfsmBackoff",
    "PrefetchIssued",
    "PrefetchUsed",
    "PrefetchEvicted",
    "CacheMiss",
    "CacheFlushed",
    "RecordSkipped",
    "write_metrics_json",
    "EventTally",
    "run_metrics",
    "TelemetryRecorder",
    "TelemetrySession",
    "NULL_SINK",
    "NullSink",
    "ListSink",
]
