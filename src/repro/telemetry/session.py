"""Session-level wiring: one :class:`TelemetrySession` per simulated run.

The session owns the event bus and the metrics registry and knows how to
attach them to the simulation stack (interpreter + memory hierarchy; the
optimizer reads the interpreter's bus dynamically).  Three modes:

* ``TelemetrySession()`` — metrics only.  The bus stays disabled, events cost
  one attribute check, and :meth:`finalize_run` reconciles the registry from
  the authoritative simulation counters at the end.  This is what
  :func:`repro.bench.runner.run_workload` creates by default, so every
  :class:`~repro.bench.runner.RunResult` carries a filled registry for free.
* ``TelemetrySession(sinks=[...])`` — full event flow into the given sinks,
  plus a :class:`MetricsSink` feeding live, event-derived metrics
  (``events.*`` counters, the prefetch lead-time histogram).  To keep the
  events on disk, pass a :class:`~repro.obs.chunks.StreamingTraceSink`.
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
from repro.telemetry.metrics import (
    DFSM_SIZE_BUCKETS,
    LEAD_TIME_BUCKETS,
    STREAM_LENGTH_BUCKETS,
    MetricsRegistry,
)
from repro.telemetry.sinks import ListSink
from repro.tracing.ledger import PrefetchLedger
from repro.tracing.spans import NULL_TRACER, SpanCollector, SpanTracer

#: Default sampling period for CacheMiss events (1 = every miss).
DEFAULT_MISS_SAMPLE_EVERY = 64
#: Default sampling period for PrefetchIssued/Used/Evicted events.
DEFAULT_PREFETCH_SAMPLE_EVERY = 32


class MetricsSink:
    """Derives live metrics from the event stream.

    Keeps an ``events.<Kind>`` counter per event kind (the agreement tests
    compare these against the legacy simulation counters) and feeds the
    prefetch lead-time histogram, which only exists as per-use data at event
    time.  Exact run totals still come from :meth:`TelemetrySession.finalize_run`.
    """

    def __init__(self, registry: MetricsRegistry) -> None:
        self.registry = registry
        self._lead_time = registry.histogram("prefetch.lead_time", LEAD_TIME_BUCKETS)

    def handle(self, event: Event) -> None:
        self.registry.inc("events." + event.kind)
        if event.kind == "PrefetchUsed":
            self._lead_time.observe(event.lead)


class TelemetrySession:
    """Event bus + metrics registry for one (workload, level) execution."""

    def __init__(
        self,
        sinks: Sequence = (),
        miss_sample_every: int = DEFAULT_MISS_SAMPLE_EVERY,
        prefetch_sample_every: int = DEFAULT_PREFETCH_SAMPLE_EVERY,
        tracing: bool = False,
        track_prefetches: bool = False,
        proc_attribution: bool = False,
    ) -> None:
        self.registry = MetricsRegistry()
        self.bus = EventBus()
        self.miss_sample_every = max(1, miss_sample_every)
        self.prefetch_sample_every = max(1, prefetch_sample_every)
        self.context: dict[str, str] = {}
        self._optimizer: Optional[dict] = None
        #: causal span tracing (repro.tracing): ``tracing=True`` routes span
        #: events through the bus and keeps a reconstructed tree in ``spans``
        self.tracer = SpanTracer(self.bus) if tracing else NULL_TRACER
        self.spans: Optional[SpanCollector] = SpanCollector() if tracing else None
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
        self._run_span = 0
        for sink in sinks:
            self.bus.attach(sink)
        if self.spans is not None:
            self.bus.attach(self.spans)
        if self.bus.enabled:
            self.bus.attach(MetricsSink(self.registry))

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
            self._run_span = self.tracer.begin(0, f"{workload}/{level}", "run")

    # ------------------------------------------------------------- finalizing

    def finalize_run(self, stats, hierarchy, summary=None) -> None:
        """Reconcile the registry from the authoritative run counters.

        ``stats`` is an :class:`~repro.interp.interpreter.ExecStats`,
        ``hierarchy`` a :class:`~repro.machine.hierarchy.MemoryHierarchy` and
        ``summary`` an optional :class:`~repro.core.stats.OptimizerSummary`
        (duck-typed to keep this package import-free of the simulation).
        """
        # Wind down the span stack (epochs, the run span) before the RunEnd
        # delimiter so collectors see a fully closed tree.
        self.tracer.close_all(stats.cycles)
        if self.bus.enabled:
            self.bus.emit(RunEnd(stats.cycles, stats.instructions, stats.bursts))
        reg = self.registry
        now = stats.cycles
        for name, value in (
            ("exec.cycles", stats.cycles),
            ("exec.instructions", stats.instructions),
            ("exec.memory_refs", stats.memory_refs),
            ("exec.mem_stall_cycles", stats.mem_stall_cycles),
            ("exec.checks_executed", stats.checks_executed),
            ("exec.bursts", stats.bursts),
            ("exec.traced_refs", stats.traced_refs),
            ("exec.trace_charges", stats.trace_charges),
            ("exec.detects_executed", stats.detects_executed),
            ("exec.detect_cycles", stats.detect_cycles),
            ("exec.prefetches_issued", stats.prefetches_issued),
            ("exec.charged_cycles", stats.charged_cycles),
            ("cache.demand_accesses", hierarchy.demand_accesses),
            ("cache.l1.hits", hierarchy.l1.hits),
            ("cache.l1.misses", hierarchy.l1.misses),
            ("cache.l1.evictions", hierarchy.l1.evictions),
            ("cache.l2.hits", hierarchy.l2.hits),
            ("cache.l2.misses", hierarchy.l2.misses),
            ("cache.l2.evictions", hierarchy.l2.evictions),
            ("prefetch.issued", hierarchy.prefetch.issued),
            ("prefetch.redundant", hierarchy.prefetch.redundant),
            ("prefetch.useful", hierarchy.prefetch.useful),
            ("prefetch.late", hierarchy.prefetch.late),
            ("prefetch.wasted", hierarchy.prefetch.wasted),
        ):
            reg.set_counter(name, value)
        for source in sorted(hierarchy.prefetch.by_source):
            reg.set_counter(
                f"prefetch.issued.{source}", hierarchy.prefetch.by_source[source]
            )
        prefetch = hierarchy.prefetch
        reg.set_gauge("exec.cpi", stats.cpi, now)
        reg.set_gauge("cache.l1.miss_rate", hierarchy.l1_miss_rate, now)
        l2 = hierarchy.l2
        reg.set_gauge("cache.l2.miss_rate", l2.misses / l2.accesses if l2.accesses else 0.0, now)
        reg.set_gauge("prefetch.accuracy", prefetch.accuracy, now)
        reg.set_gauge("prefetch.timeliness", prefetch.timeliness, now)
        reg.set_gauge("prefetch.pollution", prefetch.pollution, now)
        if summary is not None:
            self._optimizer = summary.to_dict()
            reg.set_counter("optimizer.opt_cycles", summary.num_cycles)
            reg.set_gauge("optimizer.mean_traced_refs", summary.mean_traced_refs, now)
            reg.set_gauge("optimizer.mean_streams", summary.mean_streams, now)
            reg.set_gauge("optimizer.mean_dfsm_states", summary.mean_dfsm_states, now)
            reg.set_gauge("optimizer.mean_dfsm_transitions", summary.mean_dfsm_transitions, now)
            reg.set_gauge("optimizer.mean_injected_checks", summary.mean_injected_checks, now)
            reg.set_gauge("optimizer.mean_procs_modified", summary.mean_procs_modified, now)
            lengths = reg.histogram("optimizer.stream_length", STREAM_LENGTH_BUCKETS)
            states = reg.histogram("optimizer.dfsm_states", DFSM_SIZE_BUCKETS)
            for cycle_stats in summary.cycles:
                states.observe(cycle_stats.dfsm_states)
                for length in cycle_stats.stream_lengths:
                    lengths.observe(length)

    def snapshot(self) -> dict[str, object]:
        """Full JSON-serializable view: context + metrics + optimizer dict."""
        snap = self.registry.snapshot()
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
