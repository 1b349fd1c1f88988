#!/usr/bin/env python3
"""Telemetry walkthrough: events, metrics and exporters on one short run.

Runs the vpr-like workload under full dynamic prefetching with an in-memory
telemetry session, prints the event counts and the run's metrics, then
streams a rerun into a chunk log (the one on-disk event format) and writes a
JSON metrics snapshot, reading both back and rendering the log as a Chrome
trace.

Run:  python examples/telemetry_demo.py
"""

from __future__ import annotations

import json
import tempfile
from pathlib import Path

from repro import TelemetrySession, run_level
from repro.obs import StreamingTraceSink, load_chunk_events, split_runs
from repro.telemetry.export import load_chrome_trace, write_chrome_trace, write_metrics_json

PASSES = 3  # a short run; telemetry content, not performance, is the point


def main() -> None:
    # An in-memory session: every event kind lands in session.events, and a
    # tally counts them per kind for the events.* counters.  Sampling periods
    # of 1 make the log exhaustive; the bench defaults (64/32) keep overhead
    # low.
    session = TelemetrySession.recording(miss_sample_every=1, prefetch_sample_every=1)
    result = run_level("vpr", "dyn", passes=PASSES, telemetry=session)

    print(f"vpr/dyn finished in {result.cycles:,} simulated cycles\n")
    counts = session.tally.kinds
    print(f"events: {len(session.events)} total, {len(counts)} kinds")
    for kind in sorted(counts, key=lambda k: (-counts[k], k)):
        print(f"  {kind:<16} {counts[kind]}")

    # The metrics are rendered from the simulation counters when the run
    # finishes, so they always agree with RunResult.
    metrics = result.metrics
    counters = metrics["counters"]
    assert counters["exec.cycles"] == result.stats.cycles
    assert counters["prefetch.issued"] == result.hierarchy.prefetch.issued
    assert counters["events.PrefetchIssued"] == counts["PrefetchIssued"]
    assert sum(counts.values()) == len(session.events)
    lead = metrics["histograms"]["prefetch.lead_time"]
    print(f"prefetch lead time: n={lead['count']} mean={lead['total'] / lead['count']:.1f}")
    for name, gauge in metrics["gauges"].items():
        print(f"  {name} = {gauge['value']:.4f}")

    with tempfile.TemporaryDirectory() as tmp:
        log_dir = Path(tmp) / "log"
        metrics_path = Path(tmp) / "metrics.json"
        trace_path = Path(tmp) / "trace.json"

        # The chunk log: sealed, digest-tagged JSONL chunks (one typed event
        # per line) with bounded memory; close() seals the tail.  A JSON
        # metrics snapshot sits beside it.
        file_session = TelemetrySession(sinks=[StreamingTraceSink(log_dir)])
        rerun = run_level("vpr", "dyn", passes=PASSES, telemetry=file_session)
        file_session.close()
        write_metrics_json(file_session.snapshot(), metrics_path)

        events, load = load_chunk_events(log_dir)
        assert load.complete
        snapshot = json.loads(metrics_path.read_text())
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
