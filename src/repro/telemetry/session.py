"""Session-level wiring: one :class:`TelemetrySession` per simulated run.

The session owns the event bus and knows how to attach it to the simulation
stack (interpreter + memory hierarchy; the optimizer reads the
interpreter's bus dynamically).  Three modes:

* ``TelemetrySession()`` — metrics only.  The bus stays disabled, events cost
  one attribute check, and :meth:`finalize_run` renders the run's metrics
  from the authoritative simulation counters at the end.  This is what
  :func:`repro.bench.runner.run_workload` creates by default, so every
  :class:`~repro.bench.runner.RunResult` carries its metrics for free.
* ``TelemetrySession(sinks=[...])`` — full event flow into the given sinks,
  plus an :class:`~repro.telemetry.metrics.EventTally` counting events per
  kind and bucketing prefetch lead times for the ``events.*`` counters and
  the ``prefetch.lead_time`` histogram.  To keep the events on disk, pass a
  :class:`~repro.obs.chunks.StreamingTraceSink`.
* :meth:`TelemetrySession.recording` — shorthand for the in-memory variant.

:class:`TelemetryRecorder` spans *several* runs (the bench CLI's
``--telemetry/--metrics`` flags): all runs append to one shared chunk log,
delimited by ``RunBegin``/``RunEnd`` events, and each run's snapshot lands in
one JSON document keyed ``workload/level``.
"""

from __future__ import annotations

import os
from typing import Optional, Sequence, Union

from repro.telemetry.events import Event, EventBus, RunBegin, RunEnd
from repro.telemetry.export import write_metrics_json
from repro.telemetry.metrics import EventTally, run_metrics
from repro.telemetry.sinks import ListSink
from repro.tracing.ledger import PrefetchLedger
from repro.tracing.spans import NULL_TRACER, SpanTracer

#: Default sampling period for CacheMiss events (1 = every miss).
DEFAULT_MISS_SAMPLE_EVERY = 64
#: Default sampling period for PrefetchIssued/Used/Evicted events.
DEFAULT_PREFETCH_SAMPLE_EVERY = 32


class TelemetrySession:
    """Event bus + rendered run metrics for one (workload, level) execution."""

    def __init__(
        self,
        sinks: Sequence = (),
        miss_sample_every: int = DEFAULT_MISS_SAMPLE_EVERY,
        prefetch_sample_every: int = DEFAULT_PREFETCH_SAMPLE_EVERY,
        tracing: bool = False,
        track_prefetches: bool = False,
        proc_attribution: bool = False,
    ) -> None:
        self.bus = EventBus()
        self.miss_sample_every = max(1, miss_sample_every)
        self.prefetch_sample_every = max(1, prefetch_sample_every)
        self.context: dict[str, str] = {}
        #: the run's metrics snapshot, rendered by :meth:`finalize_run`
        self.metrics: Optional[dict] = None
        self._optimizer: Optional[dict] = None
        #: causal span tracing (repro.tracing): ``tracing=True`` routes span
        #: events through the bus into the session's sinks
        self.tracer = SpanTracer(self.bus) if tracing else NULL_TRACER
        #: per-prefetch lifecycle ledger; ``track_prefetches=True`` attaches
        #: it to the hierarchy at :meth:`wire`
        self.ledger: Optional[PrefetchLedger] = (
            PrefetchLedger() if track_prefetches else None
        )
        #: per-procedure cycle attribution; ``proc_attribution=True`` installs
        #: a :class:`~repro.tracing.attribution.ProcAttrRecorder` at
        #: :meth:`wire` (descriptive counters only — never charges cycles)
        self.proc_attribution = proc_attribution
        self.proc_attr = None
        for sink in sinks:
            self.bus.attach(sink)
        #: per-kind event counts and lead-time buckets, for sessions with sinks
        self.tally: Optional[EventTally] = None
        if self.bus.enabled:
            self.tally = EventTally()
            self.bus.attach(self.tally)

    # ----------------------------------------------------------- constructors

    @classmethod
    def recording(
        cls,
        miss_sample_every: int = DEFAULT_MISS_SAMPLE_EVERY,
        prefetch_sample_every: int = DEFAULT_PREFETCH_SAMPLE_EVERY,
        tracing: bool = False,
        track_prefetches: bool = False,
        proc_attribution: bool = False,
    ) -> "TelemetrySession":
        """Session collecting events in memory (``session.events``)."""
        return cls(
            sinks=[ListSink()],
            miss_sample_every=miss_sample_every,
            prefetch_sample_every=prefetch_sample_every,
            tracing=tracing,
            track_prefetches=track_prefetches,
            proc_attribution=proc_attribution,
        )

    @property
    def events(self) -> list[Event]:
        """Events captured by the first ListSink, if any."""
        for sink in self.bus._sinks:
            if isinstance(sink, ListSink):
                return sink.events
        return []

    # ----------------------------------------------------------------- wiring

    def wire(self, interp) -> None:
        """Attach this session to an interpreter and its memory hierarchy."""
        interp.telemetry = self.bus
        interp.tracer = self.tracer
        if self.proc_attribution:
            # A checkpointed interpreter restores with its recorder attached;
            # replacing it would drop every pre-checkpoint charge, so only a
            # bare interpreter gets a fresh one.
            if interp.proc_attr is None:
                from repro.tracing.attribution import ProcAttrRecorder

                interp.proc_attr = ProcAttrRecorder()
            self.proc_attr = interp.proc_attr
        hierarchy = interp.hierarchy
        hierarchy.telemetry = self.bus
        hierarchy.ledger = self.ledger
        hierarchy.miss_sample_every = self.miss_sample_every
        hierarchy.prefetch_sample_every = self.prefetch_sample_every

    def begin_run(self, workload: str, level: str) -> None:
        """Record run identity and emit the ``RunBegin`` delimiter."""
        self.context = {"workload": workload, "level": level}
        if self.bus.enabled:
            self.bus.emit(RunBegin(0, workload, level))
        if self.tracer.enabled:
            self.tracer.begin(0, f"{workload}/{level}", "run")

    # ------------------------------------------------------------- finalizing

    def finalize_run(self, stats, hierarchy, summary=None) -> dict:
        """Close the run and render its metrics; returns the snapshot.

        ``stats`` is an :class:`~repro.interp.interpreter.ExecStats`,
        ``hierarchy`` a :class:`~repro.machine.hierarchy.MemoryHierarchy` and
        ``summary`` an optional :class:`~repro.core.stats.OptimizerSummary`
        (duck-typed to keep this package import-free of the simulation).
        """
        # Wind down the span stack (epochs, the run span) before the RunEnd
        # delimiter so the log holds a fully closed tree.
        self.tracer.close_all(stats.cycles)
        if self.bus.enabled:
            self.bus.emit(RunEnd(stats.cycles, stats.instructions, stats.bursts))
        if summary is not None:
            self._optimizer = summary.to_dict()
        self.metrics = run_metrics(stats, hierarchy, summary, self.tally)
        return self.metrics

    def snapshot(self) -> dict[str, object]:
        """Full JSON-serializable view: context + metrics + optimizer dict."""
        snap = dict(self.metrics)
        snap["context"] = dict(self.context)
        snap["optimizer"] = self._optimizer
        return snap

    def close(self) -> None:
        """Close sinks that hold files (seals a streaming sink's log)."""
        self.bus.close()


class TelemetryRecorder:
    """Telemetry spanning a whole bench session (many workload × level runs).

    All runs stream into one shared chunk log (``events_dir``); per-run
    metrics snapshots accumulate and are written as a single JSON document
    on :meth:`close`.  The log's sink is created here, so a used directory
    is refused before any run starts.
    """

    def __init__(
        self,
        events_dir: Optional[Union[str, os.PathLike]] = None,
        metrics_path: Optional[Union[str, os.PathLike]] = None,
        miss_sample_every: int = DEFAULT_MISS_SAMPLE_EVERY,
        prefetch_sample_every: int = DEFAULT_PREFETCH_SAMPLE_EVERY,
    ) -> None:
        self.events_dir = events_dir
        self.metrics_path = metrics_path
        self.miss_sample_every = miss_sample_every
        self.prefetch_sample_every = prefetch_sample_every
        self.snapshots: dict[str, object] = {}
        if events_dir is not None:
            from repro.obs.chunks import StreamingTraceSink

            self._stream = StreamingTraceSink(events_dir)
        else:
            self._stream = None

    @property
    def enabled(self) -> bool:
        return self.events_dir is not None or self.metrics_path is not None

    def session_for(self, workload: str, level: str) -> Optional[TelemetrySession]:
        """A fresh session for one run, sharing the recorder's chunk log."""
        if not self.enabled:
            return None
        session = TelemetrySession(
            sinks=[self._stream] if self._stream is not None else [],
            miss_sample_every=self.miss_sample_every,
            prefetch_sample_every=self.prefetch_sample_every,
            # Logged runs record per-procedure attribution so the chunk
            # summaries carry the by-proc split.
            proc_attribution=self._stream is not None,
        )
        session.begin_run(workload, level)
        return session

    def record(self, workload: str, level: str, session: TelemetrySession) -> None:
        """Stash the finished run's snapshot under ``workload/level``."""
        self.snapshots[f"{workload}/{level}"] = session.snapshot()

    def close(self) -> None:
        """Seal the shared chunk log and write the metrics JSON document."""
        if self._stream is not None:
            self._stream.close()
        if self.metrics_path is not None:
            write_metrics_json(self.snapshots, self.metrics_path)
