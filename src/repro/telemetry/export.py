"""Exporters and loaders for telemetry data.

The event log itself has one on-disk format, the chunk directory written by
:class:`~repro.obs.chunks.StreamingTraceSink` and read back by
:func:`~repro.obs.chunks.load_chunk_events`.  This module holds the other
views:

* **JSON metrics snapshot** — the dicts produced by
  :meth:`~repro.telemetry.session.TelemetrySession.snapshot`, written by
  :func:`write_metrics_json` (plain JSON; ``json.load`` reads it back).
* **Chrome trace-event JSON** — the span tree and event stream rendered in
  the `Trace Event Format` consumed by ``chrome://tracing`` and
  `ui.perfetto.dev <https://ui.perfetto.dev>`_; one simulated cycle maps to
  one microsecond of trace time.  :func:`chrome_trace_document` is the one
  track layout (the Perfetto render in :mod:`repro.obs.perfetto` reuses
  it), :func:`write_chrome_trace` its writer and
  :func:`load_chrome_trace`/:func:`validate_chrome_trace` the loader and
  schema check (required keys ``ph``/``ts``/``pid``/``name`` per entry,
  balanced B/E nesting per thread).
"""

from __future__ import annotations

import json
import os
from typing import Optional, Sequence, Union

from repro.errors import ConfigError
from repro.telemetry.events import Event

PathLike = Union[str, os.PathLike]


# ----------------------------------------------------------- metrics exports


def write_metrics_json(snapshot: dict, path: PathLike) -> None:
    """Write a metrics snapshot dict as pretty-printed JSON."""
    with open(os.fspath(path), "w", encoding="utf-8") as fh:
        json.dump(snapshot, fh, indent=2, sort_keys=True)
        fh.write("\n")


# --------------------------------------------------- Chrome trace-event JSON

#: Span category -> virtual thread id, so tracks group sensibly in the UI.
#: Categories sharing a tid (analysis/injection/watchdog) nest properly by
#: construction: injection spans are instantaneous inside analysis spans,
#: and reinstall spans open inside their watchdog poll.
_SPAN_TIDS = {"run": 0, "epoch": 1, "analysis": 2, "injection": 2, "watchdog": 2}
_TID_BURST = 3
_TID_INSTANT = 4
_THREAD_NAMES = {
    0: "run",
    1: "optimizer epochs",
    2: "analysis/injection/watchdog",
    3: "profiling bursts",
    4: "events",
}
#: Event kinds rendered as instants (everything else that carries payload).
_INSTANT_SKIP = {"SpanBegin", "SpanEnd", "BurstBegin", "BurstEnd"}


def chrome_trace_events(events: Sequence[Event], pid: int = 1, label: str = "") -> list[dict]:
    """Render one run's event stream as Chrome trace-event entries.

    Span events become duration (``B``/``E``) entries, burst begin/end pairs
    become duration entries on their own thread, and every other event kind
    becomes a thread-scoped instant (``i``) carrying its payload in ``args``.
    ``ts`` is the simulated cycle.  Unbalanced opens are closed at the
    largest observed timestamp so the output always nests.
    """
    entries: list[dict] = []
    for tid, thread_name in _THREAD_NAMES.items():
        entries.append(
            {
                "ph": "M",
                "ts": 0,
                "pid": pid,
                "tid": tid,
                "name": "thread_name",
                "args": {"name": thread_name},
            }
        )
    if label:
        entries.append(
            {
                "ph": "M",
                "ts": 0,
                "pid": pid,
                "tid": 0,
                "name": "process_name",
                "args": {"name": label},
            }
        )
    open_spans: dict[int, dict] = {}
    open_burst: Optional[dict] = None
    max_ts = 0
    body: list[dict] = []
    for event in events:
        ts = event.cycle
        max_ts = ts if ts > max_ts else max_ts
        kind = event.kind
        if kind == "SpanBegin":
            tid = _SPAN_TIDS.get(event.category, 2)
            entry = {
                "ph": "B",
                "ts": ts,
                "pid": pid,
                "tid": tid,
                "name": event.name,
                "cat": event.category,
                "args": {"span_id": event.span_id, "detail": event.detail},
            }
            body.append(entry)
            open_spans[event.span_id] = entry
        elif kind == "SpanEnd":
            begun = open_spans.pop(event.span_id, None)
            if begun is not None:
                body.append(
                    {
                        "ph": "E",
                        "ts": ts,
                        "pid": pid,
                        "tid": begun["tid"],
                        "name": begun["name"],
                        "cat": begun["cat"],
                    }
                )
        elif kind == "BurstBegin":
            entry = {
                "ph": "B",
                "ts": ts,
                "pid": pid,
                "tid": _TID_BURST,
                "name": "burst",
                "cat": "burst",
            }
            body.append(entry)
            open_burst = entry
        elif kind == "BurstEnd":
            if open_burst is not None:
                body.append(
                    {
                        "ph": "E",
                        "ts": ts,
                        "pid": pid,
                        "tid": _TID_BURST,
                        "name": "burst",
                        "cat": "burst",
                    }
                )
                open_burst = None
        else:
            args = {k: v for k, v in event.to_record().items() if k not in ("kind", "cycle")}
            body.append(
                {
                    "ph": "i",
                    "ts": ts,
                    "pid": pid,
                    "tid": _TID_INSTANT,
                    "name": kind,
                    "s": "t",
                    "args": args,
                }
            )
    if open_burst is not None:
        body.append(
            {"ph": "E", "ts": max_ts, "pid": pid, "tid": _TID_BURST, "name": "burst", "cat": "burst"}
        )
    # Close unbalanced spans innermost-first (reverse open order).
    for entry in reversed(list(open_spans.values())):
        body.append(
            {
                "ph": "E",
                "ts": max_ts,
                "pid": pid,
                "tid": entry["tid"],
                "name": entry["name"],
                "cat": entry["cat"],
            }
        )
    # Stable sort: equal-ts entries keep emission order, preserving nesting.
    body.sort(key=lambda e: e["ts"])
    return entries + body


def chrome_trace_document(
    runs: Sequence[tuple[str, Sequence[Event]]],
    summaries: Optional[Sequence[dict]] = None,
) -> dict:
    """One Chrome trace-event document covering ``runs``.

    ``runs`` is a sequence of ``(label, events)`` pairs, one per simulated
    run; each becomes its own process (pid) in the trace so multiple
    workloads/levels land side by side on a shared timeline.

    ``summaries`` (when given) is attached under the extra
    ``reproSummaries`` key — the per-run summary documents a chunk
    directory's manifest carries, so monolithic traces and chunk
    directories are interchangeable inputs to ``repro-bench explain
    --from``.  Trace viewers and :func:`validate_chrome_trace` ignore
    unknown document keys, and the key is omitted entirely when no
    summaries are supplied.
    """
    entries: list[dict] = []
    for pid, (label, events) in enumerate(runs, start=1):
        entries.extend(chrome_trace_events(events, pid=pid, label=label))
    document = {"traceEvents": entries, "displayTimeUnit": "ms"}
    if summaries is not None:
        # Canonical key order, as the chunk manifest stores them, so a render
        # of live summaries equals a render of the same run's loaded log.
        document["reproSummaries"] = [
            json.loads(json.dumps(doc, sort_keys=True)) for doc in summaries
        ]
    return document


def write_trace_document(document: dict, path: PathLike) -> None:
    """Write a Chrome trace document as compact JSON plus a newline."""
    # ``json.dumps`` encodes in C; ``json.dump`` streams the same bytes
    # through the pure-Python encoder, several times slower on a big trace.
    text = json.dumps(document, separators=(",", ":"))
    with open(os.fspath(path), "w", encoding="utf-8") as fh:
        fh.write(text)
        fh.write("\n")


def write_chrome_trace(
    runs: Sequence[tuple[str, Sequence[Event]]],
    path: PathLike,
    summaries: Optional[Sequence[dict]] = None,
) -> int:
    """Write :func:`chrome_trace_document` of ``runs``; the entry count."""
    document = chrome_trace_document(runs, summaries)
    write_trace_document(document, path)
    return len(document["traceEvents"])


def load_chrome_trace(path: PathLike) -> dict:
    """Load and validate a trace written by :func:`write_chrome_trace`."""
    with open(os.fspath(path), "r", encoding="utf-8") as fh:
        document = json.load(fh)
    validate_chrome_trace(document)
    return document


def validate_chrome_trace(document: object) -> None:
    """Schema-check a Chrome trace-event document; ConfigError on violation.

    Checks the JSON-object shape, a non-empty ``traceEvents`` array, the
    required keys ``ph``/``ts``/``pid``/``name`` on every entry, known phase
    codes, and balanced ``B``/``E`` nesting per ``(pid, tid)`` thread.
    """
    if not isinstance(document, dict):
        raise ConfigError(
            f"trace document must be a JSON object, got {type(document).__name__}"
        )
    entries = document.get("traceEvents")
    if not isinstance(entries, list) or not entries:
        raise ConfigError("trace document must carry a non-empty traceEvents array")
    stacks: dict[tuple, list[str]] = {}
    for index, entry in enumerate(entries):
        if not isinstance(entry, dict):
            raise ConfigError(f"traceEvents[{index}] is not an object")
        for key in ("ph", "ts", "pid", "name"):
            if key not in entry:
                raise ConfigError(f"traceEvents[{index}] missing required key {key!r}")
        ph = entry["ph"]
        if ph not in ("B", "E", "i", "M", "X"):
            raise ConfigError(f"traceEvents[{index}] has unknown phase {ph!r}")
        thread = (entry["pid"], entry.get("tid", 0))
        if ph == "B":
            stacks.setdefault(thread, []).append(entry["name"])
        elif ph == "E":
            stack = stacks.get(thread)
            if not stack:
                raise ConfigError(
                    f"traceEvents[{index}]: E without matching B on thread {thread}"
                )
            opened = stack.pop()
            if opened != entry["name"]:
                raise ConfigError(
                    f"traceEvents[{index}]: E {entry['name']!r} closes B {opened!r} "
                    f"on thread {thread}"
                )
    unbalanced = {thread: stack for thread, stack in stacks.items() if stack}
    if unbalanced:
        raise ConfigError(f"unclosed B entries at end of trace: {unbalanced}")
