"""Tests for the repro.telemetry subsystem.

Covers the event model, sinks, the rendered run metrics, exporters, the
sampling invariants, the zero-observer-effect guarantee, and the agreement
between the metrics snapshot and the simulation counters on full runs.
"""

from __future__ import annotations

import hashlib
import json

import pytest

from repro.bench.runner import run_level
from repro.engine.result import RunResult
from repro.errors import ConfigError
from repro.machine.config import CacheGeometry, MachineConfig
from repro.machine.hierarchy import MemoryHierarchy
from repro.obs.chunks import load_chunk_events
from repro.obs.stream import StreamingTraceSink
from repro.telemetry.events import (
    EVENT_TYPES,
    BurstBegin,
    CacheFlushed,
    Event,
    EventBus,
    PrefetchIssued,
    from_record,
)
from repro.telemetry.export import write_metrics_json
from repro.telemetry.metrics import LEAD_TIME_BUCKETS, EventTally, run_metrics
from repro.telemetry.session import TelemetryRecorder, TelemetrySession
from repro.telemetry.sinks import NULL_SINK, ListSink

TINY = MachineConfig(
    l1=CacheGeometry(512, 2), l2=CacheGeometry(4096, 4), l2_latency=10, memory_latency=100
)

#: one constructed instance per registered event kind, for round-trip tests
SAMPLE_EVENTS = {
    "RunBegin": lambda: EVENT_TYPES["RunBegin"](0, "vpr", "dyn"),
    "RunEnd": lambda: EVENT_TYPES["RunEnd"](100, 90, 3),
    "BurstBegin": lambda: EVENT_TYPES["BurstBegin"](10),
    "BurstEnd": lambda: EVENT_TYPES["BurstEnd"](20, 1),
    "PhaseTransition": lambda: EVENT_TYPES["PhaseTransition"](30, "AWAKE", "HIBERNATING"),
    "AnalysisCharged": lambda: EVENT_TYPES["AnalysisCharged"](40, 512, 1024),
    "OptimizeCycle": lambda: EVENT_TYPES["OptimizeCycle"](50, 1, 512, 4, 10, 20, 6, 2),
    "DfsmBuilt": lambda: EVENT_TYPES["DfsmBuilt"](60, 10, 20, 4),
    "DfsmBackoff": lambda: EVENT_TYPES["DfsmBackoff"](70, 8, 4),
    "PrefetchIssued": lambda: EVENT_TYPES["PrefetchIssued"](80, 0x40, "sw", False),
    "PrefetchUsed": lambda: EVENT_TYPES["PrefetchUsed"](90, 0x40, False, 25),
    "PrefetchEvicted": lambda: EVENT_TYPES["PrefetchEvicted"](95, 0x41, True),
    "CacheMiss": lambda: EVENT_TYPES["CacheMiss"](99, "L2", 0x42, 100),
    "CacheFlushed": lambda: EVENT_TYPES["CacheFlushed"](99, 16, 128),
    "GuardRejected": lambda: EVENT_TYPES["GuardRejected"](96, "no_tail", "walk0:3@0x40 (+0)", 2, 11),
    "StreamDeoptimized": lambda: EVENT_TYPES["StreamDeoptimized"](
        97, "walk0:3@0x40 (+8)", "pollution", 0.1, 0.9, 64, 1
    ),
    "FaultInjected": lambda: EVENT_TYPES["FaultInjected"](98, "drop_burst", "records discarded"),
    "OptimizerError": lambda: EVENT_TYPES["OptimizerError"](
        99, "optimize", "InjectedFault", "injected fault: analysis_error", 1, False
    ),
    "RecordSkipped": lambda: EVENT_TYPES["RecordSkipped"](0, 7, "invalid JSON", "{trunc"),
    "SpanBegin": lambda: EVENT_TYPES["SpanBegin"](5, 1, 0, "run:vpr/dyn", "run", ""),
    "SpanEnd": lambda: EVENT_TYPES["SpanEnd"](95, 1),
    "ResultCacheHit": lambda: EVENT_TYPES["ResultCacheHit"](0, "vpr", "dyn", "ab" * 32),
    "ResultCacheMiss": lambda: EVENT_TYPES["ResultCacheMiss"](0, "vpr", "dyn", "ab" * 32),
    "ResultCacheStored": lambda: EVENT_TYPES["ResultCacheStored"](
        0, "vpr", "dyn", "ab" * 32, 4096
    ),
    "ResultCacheEvicted": lambda: EVENT_TYPES["ResultCacheEvicted"](
        0, "ab" * 32, "age", 4096
    ),
    "CheckpointSaved": lambda: EVENT_TYPES["CheckpointSaved"](
        0, "vpr", "dyn", "/tmp/run.ckpt", 250000, 4096
    ),
    "CheckpointLoaded": lambda: EVENT_TYPES["CheckpointLoaded"](
        0, "vpr", "dyn", "/tmp/run.ckpt", 250000
    ),
    "CheckpointRejected": lambda: EVENT_TYPES["CheckpointRejected"](
        0, "/tmp/run.ckpt", "digest"
    ),
    "CheckpointSkipped": lambda: EVENT_TYPES["CheckpointSkipped"](
        0, "vpr", "dyn", "unpicklable state"
    ),
    "WorkerCrashed": lambda: EVENT_TYPES["WorkerCrashed"](0, "vpr", "dyn", 1),
    "WorkerTimedOut": lambda: EVENT_TYPES["WorkerTimedOut"](
        0, "vpr", "dyn", 1, 10.5, "stall"
    ),
    "WorkerSlow": lambda: EVENT_TYPES["WorkerSlow"](0, "vpr", "dyn", 1, 10.5, 250000),
    "TaskRetried": lambda: EVENT_TYPES["TaskRetried"](0, "vpr", "dyn", 2, 0.5),
    "JournalReplayed": lambda: EVENT_TYPES["JournalReplayed"](
        0, "/tmp/plan.jsonl", 3, 1
    ),
    "ChaosInjected": lambda: EVENT_TYPES["ChaosInjected"](
        0, "kill_worker", "vpr/dyn"
    ),
}


class TestEventModel:
    def test_every_kind_has_a_sample(self):
        assert set(SAMPLE_EVENTS) == set(EVENT_TYPES)

    @pytest.mark.parametrize("kind", sorted(SAMPLE_EVENTS))
    def test_record_round_trip(self, kind):
        event = SAMPLE_EVENTS[kind]()
        record = event.to_record()
        assert record["kind"] == kind
        assert from_record(json.loads(json.dumps(record))) == event

    def test_events_are_immutable(self):
        event = BurstBegin(5)
        with pytest.raises(Exception):
            event.cycle = 6

    def test_unknown_kind_rejected(self):
        with pytest.raises(ConfigError):
            from_record({"kind": "NoSuchEvent", "cycle": 0})

    def test_bus_disabled_without_sinks(self):
        bus = EventBus()
        assert not bus.enabled
        bus.emit(BurstBegin(0))  # must be a harmless no-op

    def test_bus_fans_out_to_sinks(self):
        bus = EventBus()
        a, b = ListSink(), ListSink()
        bus.attach(a)
        bus.attach(b)
        assert bus.enabled
        bus.emit(BurstBegin(1))
        assert a.events == b.events == [BurstBegin(1)]
        assert a.counts() == {"BurstBegin": 1}

    def test_null_sink_is_disabled(self):
        assert not NULL_SINK.enabled
        NULL_SINK.emit(BurstBegin(0))


class TestSinksAndExporters:
    def test_stream_sink_round_trip(self, tmp_path):
        sink = StreamingTraceSink(tmp_path / "log")
        events = [SAMPLE_EVENTS[k]() for k in sorted(SAMPLE_EVENTS)]
        for event in events:
            sink.handle(event)
        sink.close()
        loaded, load = load_chunk_events(tmp_path / "log")
        assert load.complete and loaded == events

    def test_metrics_json_round_trip(self, tmp_path):
        result = run_level("vortex", "dyn", passes=1)
        path = tmp_path / "metrics.json"
        write_metrics_json(result.metrics, path)
        assert json.loads(path.read_text()) == result.metrics


#: sha256 of ``json.dumps(result.to_dict()["metrics"], sort_keys=True)`` for
#: vortex/dyn, recorded before the metrics were rendered from the run's
#: counters; the rendering must not move a byte.
METRICS_PINS = {
    # passes=1 under recording(tracing=True, track_prefetches=True)
    1: "288de13eaadb33b8b34bb9394a1af5e7110dc9da62eda6942f7fc63ef25c527e",
    # passes=3, as above plus exhaustive sampling: lead times, streams, DFSMs
    3: "b9aadc3d7a172005954da44d11282db06a03a8759daf987c416658105bb5dabd",
}


def _pinned_run(passes):
    sampling = {} if passes == 1 else {"miss_sample_every": 1, "prefetch_sample_every": 1}
    session = TelemetrySession.recording(tracing=True, track_prefetches=True, **sampling)
    return session, run_level("vortex", "dyn", passes=passes, telemetry=session)


class TestRunMetrics:
    """The metrics snapshot is a pure function of the finished run."""

    def test_metrics_only_run_renders_from_counters(self):
        result = run_level("vortex", "dyn", passes=2)
        assert result.metrics == run_metrics(result.stats, result.hierarchy, result.summary)
        assert not any(name.startswith("events.") for name in result.metrics["counters"])
        assert "prefetch.lead_time" not in result.metrics["histograms"]

    def test_evented_run_renders_from_counters_and_tally(self):
        session, result = _pinned_run(3)
        assert session.tally is not None
        assert result.metrics == run_metrics(
            result.stats, result.hierarchy, result.summary, session.tally
        )
        assert session.metrics == result.metrics

    def test_round_trip_keeps_metrics(self):
        _, result = _pinned_run(3)
        replayed = RunResult.from_dict(json.loads(json.dumps(result.to_dict())))
        assert replayed.metrics == result.metrics
        assert replayed.to_dict() == result.to_dict()

    @pytest.mark.parametrize("passes", sorted(METRICS_PINS))
    def test_serialized_metrics_bytes_are_pinned(self, passes):
        _, result = _pinned_run(passes)
        text = json.dumps(result.to_dict()["metrics"], sort_keys=True)
        assert hashlib.sha256(text.encode()).hexdigest() == METRICS_PINS[passes]

    def test_snapshot_layout(self):
        result = run_level("vortex", "dyn", passes=2)
        metrics = result.metrics
        for section in ("counters", "gauges", "histograms"):
            assert list(metrics[section]) == sorted(metrics[section])
        assert all(g["cycle"] == result.cycles for g in metrics["gauges"].values())
        assert all(isinstance(g["value"], float) for g in metrics["gauges"].values())
        lengths = metrics["histograms"]["optimizer.stream_length"]
        assert set(lengths) == {"bounds", "counts", "count", "total"}
        assert len(lengths["counts"]) == len(lengths["bounds"]) + 1
        assert sum(lengths["counts"]) == lengths["count"]

    def test_tally_buckets_lead_times(self):
        tally = EventTally()
        for lead in (0, 5, 10, 11, 5000):
            tally.handle(EVENT_TYPES["PrefetchUsed"](1, 0x40, False, lead))
        tally.handle(BurstBegin(2))
        assert tally.kinds == {"PrefetchUsed": 5, "BurstBegin": 1}
        hist = tally.lead_time()
        assert hist["bounds"] == list(LEAD_TIME_BUCKETS)
        assert hist["counts"][:3] == [1, 2, 1]
        assert hist["counts"][-1] == 1  # above the last bound: overflow bucket
        assert (hist["count"], hist["total"]) == (5, 5026)


class TestRunAgreement:
    """Satellite: telemetry counters agree with the legacy counters."""

    @pytest.mark.parametrize("name,passes", [("vpr", 2), ("mcf", 2)])
    def test_dyn_run_counters_agree(self, name, passes):
        session = TelemetrySession.recording(miss_sample_every=1, prefetch_sample_every=1)
        result = run_level(name, "dyn", passes=passes, telemetry=session)
        counters = result.metrics["counters"]
        stats, hier = result.stats, result.hierarchy
        assert counters["exec.cycles"] == stats.cycles
        assert counters["exec.instructions"] == stats.instructions
        assert counters["exec.bursts"] == stats.bursts
        assert counters["cache.l1.hits"] == hier.l1.hits
        assert counters["cache.l1.misses"] == hier.l1.misses
        assert counters["cache.l2.hits"] == hier.l2.hits
        assert counters["cache.l2.misses"] == hier.l2.misses
        assert counters["prefetch.issued"] == hier.prefetch.issued
        assert counters["prefetch.useful"] == hier.prefetch.useful
        assert counters["optimizer.opt_cycles"] == result.summary.num_cycles
        # Event-derived counts (period 1 = exhaustive) match the same totals.
        assert counters["events.BurstEnd"] == stats.bursts
        assert counters["events.CacheMiss"] == hier.l1.misses
        assert counters["events.PrefetchIssued"] == hier.prefetch.issued
        used = hier.prefetch.useful + hier.prefetch.late
        assert counters["events.PrefetchUsed"] == used
        assert counters["events.OptimizeCycle"] == result.summary.num_cycles
        assert result.metrics["histograms"]["prefetch.lead_time"]["count"] == used

    def test_optimizer_summary_to_dict(self):
        result = run_level("vpr", "dyn", passes=2)
        summary = result.summary.to_dict()
        assert summary["num_cycles"] == result.summary.num_cycles
        assert summary["mean_dfsm_transitions"] == result.summary.mean_dfsm_transitions
        assert len(summary["cycles"]) == result.summary.num_cycles
        assert all("dfsm_transitions" in c for c in summary["cycles"])


class TestObserverEffect:
    """Satellite: simulated cycle counts are identical telemetry on vs off."""

    @pytest.mark.parametrize("name", ["vpr", "mcf"])
    def test_cycles_identical_on_vs_off(self, name, tmp_path):
        plain = run_level(name, "dyn", passes=2)
        session = TelemetrySession(
            sinks=[StreamingTraceSink(tmp_path / "log")],
            miss_sample_every=1,
            prefetch_sample_every=1,
        )
        traced = run_level(name, "dyn", passes=2, telemetry=session)
        session.close()
        assert traced.stats.cycles == plain.stats.cycles
        assert traced.stats.instructions == plain.stats.instructions
        assert traced.hierarchy.l1.misses == plain.hierarchy.l1.misses


class TestSamplingInvariants:
    def test_emitted_equals_occurrences_floor_div_period(self):
        session = TelemetrySession.recording(miss_sample_every=16, prefetch_sample_every=8)
        result = run_level("vpr", "dyn", passes=2, telemetry=session)
        counts: dict[str, int] = {}
        for event in session.events:
            counts[event.kind] = counts.get(event.kind, 0) + 1
        pf = result.hierarchy.prefetch
        assert counts["CacheMiss"] == result.hierarchy.l1.misses // 16
        assert counts["PrefetchIssued"] == pf.issued // 8
        assert counts["PrefetchUsed"] == (pf.useful + pf.late) // 8
        assert counts.get("PrefetchEvicted", 0) == pf.wasted // 8


class TestRecorder:
    def test_recorder_round_trips_jsonl_and_json(self, tmp_path):
        events_dir = tmp_path / "log"
        metrics_path = tmp_path / "metrics.json"
        recorder = TelemetryRecorder(events_dir=events_dir, metrics_path=metrics_path)
        for level in ("orig", "dyn"):
            session = recorder.session_for("vpr", level)
            run_level("vpr", level, passes=2, telemetry=session)
            recorder.record("vpr", level, session)
        recorder.close()
        events, load = load_chunk_events(events_dir)
        assert load.complete and [doc["level"] for doc in load.summaries] == ["orig", "dyn"]
        kinds = {event.kind for event in events}
        assert {"RunBegin", "RunEnd"} <= kinds
        assert all(isinstance(event, Event) for event in events)
        snapshots = json.loads(metrics_path.read_text())
        assert set(snapshots) == {"vpr/orig", "vpr/dyn"}
        assert snapshots["vpr/dyn"]["context"] == {"workload": "vpr", "level": "dyn"}
        assert snapshots["vpr/dyn"]["optimizer"]["num_cycles"] >= 1
        assert snapshots["vpr/orig"]["counters"]["exec.cycles"] > 0

    def test_disabled_recorder_yields_no_session(self):
        recorder = TelemetryRecorder()
        assert not recorder.enabled
        assert recorder.session_for("vpr", "dyn") is None


class TestFlushRegression:
    """Satellite: counters and prefetch stats survive a flush."""

    def _hierarchy_with_bus(self):
        hier = MemoryHierarchy(TINY)
        sink = ListSink()
        bus = EventBus()
        bus.attach(sink)
        hier.telemetry = bus
        hier.miss_sample_every = 1
        hier.prefetch_sample_every = 1
        return hier, sink

    def test_flush_preserves_counters_and_emits_event(self):
        hier, sink = self._hierarchy_with_bus()
        hier.access(0x1000, now=0)
        hier.access(0x1000, now=10)  # hit
        hier.issue_prefetch(0x8000, now=20)
        hier.issue_prefetch(0x9000, now=20)
        hier.access(0x8000, now=500)  # one prefetch used
        hits, misses = hier.l1.hits, hier.l1.misses
        hier.flush(now=600)
        assert hier.l1.hits == hits and hier.l1.misses == misses
        assert hier.prefetch.issued == 2
        assert hier.prefetch.useful == 1
        # The unused prefetched block became wasted at flush time, so the
        # life-cycle invariant holds without waiting for finalize().
        pf = hier.prefetch
        assert pf.issued == pf.redundant + pf.useful + pf.late + pf.wasted
        flushes = [event for event in sink.events if isinstance(event, CacheFlushed)]
        assert len(flushes) == 1
        assert flushes[0].cycle == 600
        assert flushes[0].l1_blocks > 0

    def test_flush_then_finalize_does_not_double_count(self):
        hier, _ = self._hierarchy_with_bus()
        hier.issue_prefetch(0x8000, now=0)
        hier.flush(now=10)
        wasted = hier.prefetch.wasted
        hier.finalize(now=20)
        assert hier.prefetch.wasted == wasted == 1
