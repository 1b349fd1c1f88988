#!/usr/bin/env python3
"""Telemetry walkthrough: events, metrics and exporters on one short run.

Runs the vpr-like workload under full dynamic prefetching with an in-memory
telemetry session, prints the event/metric summary, then streams a rerun
into a chunk log (the one on-disk event format) and writes a JSON metrics
snapshot, round-tripping both through their loaders and rendering the log
as a Chrome trace.

Run:  python examples/telemetry_demo.py
"""

from __future__ import annotations

import tempfile
from pathlib import Path

from repro import TelemetrySession, run_level
from repro.obs import StreamingTraceSink, load_chunk_events, split_runs
from repro.telemetry.export import (
    load_chrome_trace,
    load_metrics_json,
    summarize,
    write_chrome_trace,
    write_metrics_json,
)

PASSES = 3  # a short run; telemetry content, not performance, is the point


def main() -> None:
    # An in-memory session: every event kind lands in session.events and a
    # MetricsSink keeps live events.* counters.  Sampling periods of 1 make
    # the log exhaustive; the bench defaults (64/32) keep overhead low.
    session = TelemetrySession.recording(miss_sample_every=1, prefetch_sample_every=1)
    result = run_level("vpr", "dyn", passes=PASSES, telemetry=session)

    print(f"vpr/dyn finished in {result.cycles:,} simulated cycles\n")
    print(summarize(session.events, session.registry.snapshot()))

    # The exact totals in the registry come from the simulation counters,
    # reconciled at finalize time — they always agree with RunResult.
    counters = session.registry.snapshot()["counters"]
    assert counters["exec.cycles"] == result.stats.cycles
    assert counters["prefetch.issued"] == result.hierarchy.prefetch.issued

    with tempfile.TemporaryDirectory() as tmp:
        log_dir = Path(tmp) / "log"
        metrics_path = Path(tmp) / "metrics.json"
        trace_path = Path(tmp) / "trace.json"

        # The chunk log: sealed, digest-tagged JSONL chunks (one typed event
        # per line) with bounded memory; close() seals the tail.  A JSON
        # metrics snapshot sits beside it.  Both round-trip through loaders.
        file_session = TelemetrySession(sinks=[StreamingTraceSink(log_dir)])
        rerun = run_level("vpr", "dyn", passes=PASSES, telemetry=file_session)
        file_session.close()
        write_metrics_json(file_session.snapshot(), metrics_path)

        events, load = load_chunk_events(log_dir)
        assert load.complete
        snapshot = load_metrics_json(metrics_path)
        kinds = sorted({event.kind for event in events})
        print(
            f"\nchunk-log JSONL round-trip: {len(events)} events in {load.chunks} "
            f"chunk(s), kinds: {', '.join(kinds)}"
        )
        print(f"metrics snapshot context: {snapshot['context']}")

        # Every other view is a render of the log, e.g. a Chrome trace.
        entries = write_chrome_trace(split_runs(events), trace_path, summaries=load.summaries)
        load_chrome_trace(trace_path)
        print(f"chrome trace rendered from the log: {entries} entries")

        # Telemetry is observer-effect-free: cycle counts are identical with
        # sampled file telemetry, exhaustive in-memory telemetry, or none.
        assert rerun.cycles == result.cycles
        print(f"observer effect: 0 (both runs took {rerun.cycles:,} cycles)")


if __name__ == "__main__":
    main()
