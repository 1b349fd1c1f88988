"""Typed telemetry events and the event bus.

Every observable moment of a simulated run is a frozen dataclass carrying the
simulated ``cycle`` it happened at plus a handful of payload fields.  Events
are *descriptive only*: emitting one never charges simulated cycles, so a run
with telemetry enabled is cycle-for-cycle identical to one without (the
observer-effect tests pin this down).

The :class:`EventBus` is the single dispatch point.  Instrumented components
hold a bus-like object (``.enabled`` / ``.emit``) that defaults to the
module-level :data:`~repro.telemetry.sinks.NULL_SINK`; the hot interpreter
loop therefore pays exactly one attribute check per potential emission site
when telemetry is off.

Event classes register themselves in :data:`EVENT_TYPES` keyed by class name,
which is also the ``kind`` discriminator of the chunk log's records; a record
round-trips through :meth:`Event.to_record` / :func:`from_record`.
"""

from __future__ import annotations

from dataclasses import dataclass, fields
from typing import ClassVar

from repro.errors import ConfigError

#: kind -> event class, populated by ``Event.__init_subclass__``.
EVENT_TYPES: dict[str, type["Event"]] = {}


@dataclass(frozen=True, slots=True)
class Event:
    """Base class: every event is stamped with the simulated cycle."""

    cycle: int

    #: Discriminator used by exporters; equals the class name.
    kind: ClassVar[str] = "Event"

    def __init_subclass__(cls, **kwargs: object) -> None:
        # No zero-arg super(): @dataclass(slots=True) recreates the class, so
        # the implicit __class__ cell would point at the pre-slots original.
        object.__init_subclass__(**kwargs)
        cls.kind = cls.__name__
        EVENT_TYPES[cls.__name__] = cls

    def to_record(self) -> dict[str, object]:
        """Flat JSON-serializable dict, ``kind`` first."""
        names = type(self).__dict__.get("_frozen_field_names")
        if names is None:
            names = tuple(f.name for f in fields(self))
            type(self)._frozen_field_names = names  # type: ignore[attr-defined]
        record: dict[str, object] = {"kind": self.kind}
        for name in names:
            record[name] = getattr(self, name)
        return record


def from_record(record: dict[str, object]) -> Event:
    """Inverse of :meth:`Event.to_record`."""
    data = dict(record)
    kind = data.pop("kind", None)
    cls = EVENT_TYPES.get(str(kind))
    if cls is None:
        raise ConfigError(f"unknown telemetry event kind {kind!r}")
    try:
        return cls(**data)  # type: ignore[arg-type]
    except TypeError as exc:
        raise ConfigError(f"malformed {kind} record: {exc}") from exc


# ------------------------------------------------------------ run life cycle


@dataclass(frozen=True, slots=True)
class RunBegin(Event):
    """A (workload, level) execution started."""

    workload: str
    level: str


@dataclass(frozen=True, slots=True)
class RunEnd(Event):
    """Execution finished; ``cycle`` is the final simulated cycle count."""

    instructions: int
    bursts: int


# --------------------------------------------------- bursty tracing (Fig. 2)


@dataclass(frozen=True, slots=True)
class BurstBegin(Event):
    """The counter machine switched to the instrumented version."""


@dataclass(frozen=True, slots=True)
class BurstEnd(Event):
    """The counter machine returned to the checking version."""

    index: int


# ------------------------------------------------------ simulator span tree


@dataclass(frozen=True, slots=True)
class SpanBegin(Event):
    """A causal span opened (run / optimizer epoch / analysis / ...).

    Spans trace the *simulator's* own activity on the simulated-cycle
    timeline (:mod:`repro.tracing`), as opposed to the profiling events,
    which describe the subject program.  ``span_id`` is unique within a
    session; ``parent_id`` is 0 for root spans.  ``category`` is one of the
    :data:`repro.tracing.spans.SPAN_CATEGORIES` taxonomy tags.
    """

    span_id: int
    parent_id: int
    name: str
    category: str
    detail: str


@dataclass(frozen=True, slots=True)
class SpanEnd(Event):
    """The span opened by the matching :class:`SpanBegin` closed."""

    span_id: int


# ------------------------------------------------ optimizer phases (Fig. 1)


@dataclass(frozen=True, slots=True)
class PhaseTransition(Event):
    """The optimizer moved between awake and hibernating."""

    previous: str
    phase: str


@dataclass(frozen=True, slots=True)
class AnalysisCharged(Event):
    """Online analysis billed ``charged_cycles`` to simulated time."""

    traced_refs: int
    charged_cycles: int


@dataclass(frozen=True, slots=True)
class OptimizeCycle(Event):
    """One profile -> analyze -> optimize cycle completed (a Table 2 row)."""

    index: int
    traced_refs: int
    num_streams: int
    dfsm_states: int
    dfsm_transitions: int
    injected_checks: int
    procs_modified: int


@dataclass(frozen=True, slots=True)
class DfsmBuilt(Event):
    """The joint prefix-match DFSM was (re)built."""

    states: int
    transitions: int
    streams: int


@dataclass(frozen=True, slots=True)
class DfsmBackoff(Event):
    """DFSM construction blew past the state cap; the stream set was halved."""

    streams_before: int
    streams_after: int


# ------------------------------------------------- resilience (watchdog etc.)


@dataclass(frozen=True, slots=True)
class GuardRejected(Event):
    """A candidate stream failed pre-install validation and was quarantined.

    ``reason`` is one of the ``repro.resilience.guards.REASON_*`` tags;
    ``stream`` is a short human-readable rendering of the stream identity.
    """

    reason: str
    stream: str
    length: int
    heat: int


@dataclass(frozen=True, slots=True)
class StreamDeoptimized(Event):
    """The watchdog rolled back one installed stream.

    ``remaining`` counts the streams still installed after the targeted
    rollback; 0 means the optimizer fully deoptimized and re-entered
    profiling.
    """

    stream: str
    reason: str
    accuracy: float
    pollution: float
    samples: int
    remaining: int


@dataclass(frozen=True, slots=True)
class FaultInjected(Event):
    """The fault-injection harness fired one planned fault."""

    fault: str
    detail: str


@dataclass(frozen=True, slots=True)
class OptimizerError(Event):
    """An analyze/optimize failure was contained (typed ``ReproError``).

    The optimizer deoptimized, entered hibernation and will retry at the
    next awake phase — unless ``disabled`` is set, in which case it has
    exhausted its error budget and sleeps for the rest of the run.
    """

    phase: str
    error: str
    message: str
    consecutive: int
    disabled: bool


# -------------------------------------------------------- memory hierarchy


@dataclass(frozen=True, slots=True)
class PrefetchIssued(Event):
    """A software or hardware prefetch was issued for ``block``."""

    block: int
    source: str
    redundant: bool


@dataclass(frozen=True, slots=True)
class PrefetchUsed(Event):
    """A demand access consumed a prefetched block.

    ``lead`` is the issue-to-use distance in cycles; ``late`` marks arrivals
    after the demand access (the residual-stall case).
    """

    block: int
    late: bool
    lead: int


@dataclass(frozen=True, slots=True)
class PrefetchEvicted(Event):
    """A prefetched block left the hierarchy without serving a demand access
    (pollution); ``at_finalize`` marks end-of-run classification."""

    block: int
    at_finalize: bool


@dataclass(frozen=True, slots=True)
class CacheMiss(Event):
    """A sampled demand miss; ``level`` is the deepest level that missed
    ("L1" = filled from L2, "L2" = filled from memory)."""

    level: str
    block: int
    stall: int


@dataclass(frozen=True, slots=True)
class CacheFlushed(Event):
    """Both cache levels were emptied (counters are preserved)."""

    l1_blocks: int
    l2_blocks: int


@dataclass(frozen=True, slots=True)
class RecordSkipped(Event):
    """A loader skipped one unreadable record of an event log.

    Synthesized by :func:`repro.obs.chunks.load_chunk_events` for a
    digest-valid record that is not a known event, never emitted by a
    simulation (``cycle`` is always 0).  ``line_no`` is 1-based; ``snippet``
    holds a truncated copy of the bad record so the original log is not
    needed to diagnose it.
    """

    line_no: int
    reason: str
    snippet: str


class EventBus:
    """Fans events out to attached sinks.

    ``enabled`` is False until the first sink attaches, so a default bus costs
    instrumented code one attribute check and nothing else.
    """

    __slots__ = ("enabled", "_sinks")

    def __init__(self) -> None:
        self._sinks: list = []
        self.enabled = False

    def attach(self, sink) -> None:
        """Attach a sink (anything with ``handle(event)``)."""
        self._sinks.append(sink)
        self.enabled = True

    def emit(self, event: Event) -> None:
        """Deliver ``event`` to every sink in attach order."""
        for sink in self._sinks:
            sink.handle(event)

    def close(self) -> None:
        """Close sinks that hold external resources (files)."""
        for sink in self._sinks:
            close = getattr(sink, "close", None)
            if close is not None:
                close()
