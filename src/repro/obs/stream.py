"""Run structure of the event log: its writer, run summaries and run splits.

:class:`StreamingTraceSink` (defined with the format in
:mod:`repro.obs.chunks`) is the event sink that writes the log; every run
it records is delimited by ``RunBegin`` and closed by a summary document.
:func:`run_summary_doc` builds that document and :func:`split_runs` cuts a
loaded log back into per-run event lists for rendering.
"""

from __future__ import annotations

from typing import Optional, Sequence

from repro.obs.chunks import StreamingTraceSink, flush_all_sinks
from repro.telemetry.events import Event

__all__ = ["StreamingTraceSink", "flush_all_sinks", "run_summary_doc", "split_runs"]


# ------------------------------------------------------------ run summaries


def run_summary_doc(
    workload: str, level: str, stats, machine, proc_recorder=None
) -> dict:
    """One run's self-describing summary for the chunk manifest / trace JSON.

    Built once per run and handed to every sink that records summaries, so
    the manifest and an in-memory :class:`~repro.telemetry.sinks.ListSink`
    hold the same document.
    """
    from repro.tracing.attribution import CycleAttribution, ProcAttribution

    attribution = CycleAttribution.from_run(stats, machine)
    doc = {
        "workload": workload,
        "level": level,
        "cycles": stats.cycles,
        "attribution": attribution.to_dict(),
    }
    if proc_recorder is not None:
        doc["by_proc"] = ProcAttribution.from_recorder(proc_recorder, machine).to_dict()
    return doc


# --------------------------------------------------------------- run splits


def split_runs(events: Sequence[Event]) -> list[tuple[str, list[Event]]]:
    """Split a merged event stream back into per-run ``(label, events)``.

    ``RunBegin`` events (emitted by every session before anything else)
    delimit runs; the delimiter stays in its run's stream, so splitting a
    loaded chunk log reproduces exactly the per-run event lists a per-run
    in-memory sink would have collected.
    """
    runs: list[tuple[str, list[Event]]] = []
    current: Optional[list[Event]] = None
    for event in events:
        if event.kind == "RunBegin":
            current = [event]
            runs.append((f"{event.workload}/{event.level}", current))
            continue
        if current is None:
            current = []
            runs.append(("?", current))
        current.append(event)
    return runs
