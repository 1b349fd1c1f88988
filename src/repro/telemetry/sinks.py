"""Event sinks: where emitted telemetry events go.

A sink is anything with ``handle(event)``; sinks holding external resources
also expose ``close()``, and sinks that want each finished run's summary
document (cycle attribution, per-procedure rows) expose
``note_run_summary(doc)``.  The important one is :data:`NULL_SINK` — a
shared, always-disabled stand-in that instrumented components hold *by
default*, so the simulation's hot paths pay a single ``.enabled`` attribute
check when no telemetry has been requested.

The one file-backed sink is :class:`~repro.obs.chunks.StreamingTraceSink`,
the chunk-log writer; :class:`ListSink` is its in-memory counterpart.
"""

from __future__ import annotations

from repro.telemetry.events import Event


class NullSink:
    """Disabled bus/sink: ``enabled`` is False and every method is a no-op.

    Doubles as a bus stand-in (it has ``emit``) so components can hold one
    object either way.
    """

    enabled = False

    def handle(self, event: Event) -> None:
        """Drop the event."""

    def emit(self, event: Event) -> None:
        """Drop the event (bus-compatible spelling)."""

    def close(self) -> None:
        """Nothing to release."""


#: Shared default for every instrumented component.
NULL_SINK = NullSink()


class ListSink:
    """Collects events and run summaries in memory — the test/debugging sink."""

    def __init__(self) -> None:
        self.events: list[Event] = []
        self.summaries: list[dict] = []

    def handle(self, event: Event) -> None:
        self.events.append(event)

    def note_run_summary(self, doc: dict) -> None:
        self.summaries.append(doc)

    def counts(self) -> dict[str, int]:
        """Number of collected events per kind."""
        out: dict[str, int] = {}
        for event in self.events:
            out[event.kind] = out.get(event.kind, 0) + 1
        return out
