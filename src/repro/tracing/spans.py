"""Causal span tracing for the simulator itself.

:mod:`repro.profiling` profiles the *subject* program (the paper's bursty
tracing); this module traces the *simulator* — which phase the optimizer was
in, when analysis ran and what it cost, when handlers were injected and when
the watchdog intervened — as a tree of **spans** keyed on simulated cycles.

A span is an interval ``[begin_cycle, end_cycle]`` with a name, a taxonomy
``category`` and an optional free-form ``detail`` string.  Spans nest: the
run span contains the optimizer's epoch spans, which contain analysis /
injection / watchdog spans; profiling bursts keep their own
``BurstBegin``/``BurstEnd`` events.  The tree lives in the event log only:
the Chrome and Perfetto renders (:mod:`repro.telemetry.export`,
:mod:`repro.obs.perfetto`) lay it out from the recorded events.

Zero-overhead guarantee: :class:`SpanTracer` rides the existing telemetry
:class:`~repro.telemetry.events.EventBus`.  With no sinks attached the bus is
disabled, ``begin`` returns 0 without emitting, and instrumented code pays
one attribute check — and because span events are *descriptive only* (like
every telemetry event), enabling them never charges simulated cycles.  The
oracle invariant :func:`repro.oracle.invariants.check_tracing_observer_effect`
pins both properties down.
"""

from __future__ import annotations

from repro.telemetry.events import SpanBegin, SpanEnd
from repro.telemetry.sinks import NULL_SINK

#: Span taxonomy (DESIGN §5d): every span carries one of these tags.
SPAN_CATEGORIES = (
    "run",        # one (workload, level) execution
    "epoch",      # one optimizer phase period (awake or hibernating)
    "burst",      # one instrumented burst (its BurstBegin/BurstEnd events)
    "analysis",   # hot-stream analysis / reinstall work charged to sim time
    "injection",  # dynamic Vulcan patching (instantaneous in the cost model)
    "watchdog",   # a watchdog poll, containing any targeted rollback
)


class SpanTracer:
    """Emits ``SpanBegin``/``SpanEnd`` through a telemetry bus.

    The tracer keeps the stack of open span ids so ``begin`` can default a
    new span's parent to the innermost open span, and ``close_all`` can wind
    the stack down at end of run (innermost first, so B/E pairs nest).
    """

    __slots__ = ("bus", "_next_id", "_open")

    def __init__(self, bus) -> None:
        self.bus = bus
        self._next_id = 0
        self._open: list[int] = []

    @property
    def enabled(self) -> bool:
        return self.bus.enabled

    def begin(self, cycle: int, name: str, category: str, parent: int = 0, detail: str = "") -> int:
        """Open a span at ``cycle``; returns its id (0 when tracing is off).

        ``parent=0`` means "the innermost currently-open span" (the natural
        nesting); pass an explicit id to attach elsewhere in the tree.
        """
        if not self.bus.enabled:
            return 0
        self._next_id += 1
        sid = self._next_id
        if parent == 0 and self._open:
            parent = self._open[-1]
        self.bus.emit(SpanBegin(cycle, sid, parent, name, category, detail))
        self._open.append(sid)
        return sid

    def end(self, cycle: int, span_id: int) -> None:
        """Close the span ``span_id`` at ``cycle`` (no-op for id 0)."""
        if not span_id or not self.bus.enabled:
            return
        try:
            self._open.remove(span_id)
        except ValueError:
            pass
        self.bus.emit(SpanEnd(cycle, span_id))

    def close_all(self, cycle: int) -> None:
        """Close every still-open span (end of run), innermost first."""
        if not self.bus.enabled:
            self._open.clear()
            return
        for sid in reversed(self._open):
            self.bus.emit(SpanEnd(cycle, sid))
        self._open.clear()


#: Shared default for components that hold a tracer slot: a tracer on the
#: always-disabled bus, so ``begin`` returns 0 and everything is a no-op.
NULL_TRACER = SpanTracer(NULL_SINK)
