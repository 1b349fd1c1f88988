"""Pre-install validation of candidate streams and DFSMs (guarded optimization).

The optimizer's analysis phase consumes *sampled* data fed through an online
grammar; under burst truncation, trace corruption or plain bad luck it can
emit candidates that would be useless or harmful to install: streams with no
tail to prefetch, single-address churn, symbols that do not resolve in the
profiler's symbol table, or exact duplicates.  :class:`StreamGuard` vets every
candidate *before* the DFSM is built and code is injected; a rejected stream
is **quarantined** for a few optimization cycles so the analysis does not pay
to rediscover and re-reject it every awake phase.

The guard never raises for a bad candidate — rejection is the success path.
It *does* raise :class:`~repro.errors.AnalysisError` from
:meth:`StreamGuard.check_dfsm` when a built DFSM is internally inconsistent,
because that indicates corrupted analysis state rather than a bad input, and
the optimizer's failure handling (hibernate, run unoptimized) must take over.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.analysis.stream import HotDataStream
from repro.errors import AnalysisError, ConfigError
from repro.wire import Wire

#: Rejection reason tags (stable strings: telemetry and tests key on them).
REASON_NO_TAIL = "no_tail"
REASON_DEGENERATE = "degenerate"
REASON_NO_HEAT = "no_heat"
REASON_OVERSIZED = "oversized"
REASON_UNKNOWN_SYMBOL = "unknown_symbol"
REASON_DUPLICATE = "duplicate"
REASON_QUARANTINED = "quarantined"
REASON_BLACKLISTED = "blacklisted"

#: Identity of a stream for quarantine/blacklist/attribution purposes.
StreamKey = tuple[int, ...]


def stream_key(stream: HotDataStream) -> StreamKey:
    """Stable identity of a stream: its full interned symbol sequence.

    Full-sequence identity (rather than head-only) keeps the watchdog's
    blacklist *precise*: after a program phase change, a stream with the same
    head but a different (now correct) tail is a different stream and is
    admitted immediately, while the stale variant stays blacklisted.
    """
    return stream.symbols


@dataclass(frozen=True)
class GuardConfig(Wire):
    """Bounds enforced on candidate streams before installation.

    Attributes:
        min_unique_refs: reject streams touching fewer distinct references
            (a single-address stream matches itself forever and prefetches
            nothing new).
        max_stream_length: sanity cap; anything longer indicates a runaway
            analysis (the optimizer's own config caps well below this).
        quarantine_cycles: optimization cycles a rejected stream identity is
            skipped without re-validation.
    """

    min_unique_refs: int = 2
    max_stream_length: int = 4096
    quarantine_cycles: int = 3

    def __post_init__(self) -> None:
        if self.min_unique_refs < 1:
            raise ConfigError("min_unique_refs must be >= 1")
        if self.max_stream_length < 2:
            raise ConfigError("max_stream_length must be >= 2")
        if self.quarantine_cycles < 0:
            raise ConfigError("quarantine_cycles must be >= 0")


@dataclass(frozen=True)
class GuardRejection:
    """One vetoed candidate: its identity, shape and the reason tag."""

    key: StreamKey
    reason: str
    length: int
    heat: int


class StreamGuard:
    """Vets candidate streams; remembers rejects; sanity-checks built DFSMs."""

    def __init__(self, config: GuardConfig | None = None) -> None:
        self.config = config if config is not None else GuardConfig()
        #: stream identity -> first optimization cycle it may be retried
        self._quarantine: dict[StreamKey, int] = {}
        self.rejections_total = 0

    # ------------------------------------------------------------- admission

    def admit(
        self,
        streams: list[HotDataStream],
        head_len: int,
        symbols,
        cycle: int,
    ) -> tuple[list[HotDataStream], list[GuardRejection]]:
        """Split candidates into (accepted, rejected) for optimization ``cycle``.

        ``symbols`` is the profiler's symbol table (only ``len()`` is used, so
        any sized container of interned ids works).  Rejected identities are
        quarantined until ``cycle + quarantine_cycles``.
        """
        num_symbols = len(symbols)
        accepted: list[HotDataStream] = []
        rejections: list[GuardRejection] = []
        seen: set[StreamKey] = set()
        for stream in streams:
            key = stream_key(stream)
            reason = self._vet(stream, key, head_len, num_symbols, cycle, seen)
            if reason is None:
                seen.add(key)
                accepted.append(stream)
                continue
            rejections.append(
                GuardRejection(key=key, reason=reason, length=stream.length, heat=stream.heat)
            )
            self.rejections_total += 1
            if reason not in (REASON_QUARANTINED, REASON_DUPLICATE):
                self._quarantine[key] = cycle + self.config.quarantine_cycles
        self._expire(cycle)
        return accepted, rejections

    def _vet(
        self,
        stream: HotDataStream,
        key: StreamKey,
        head_len: int,
        num_symbols: int,
        cycle: int,
        seen: set[StreamKey],
    ) -> str | None:
        """Reason tag for rejecting ``stream``, or None to accept."""
        until = self._quarantine.get(key)
        if until is not None and cycle < until:
            return REASON_QUARANTINED
        if key in seen:
            return REASON_DUPLICATE
        if stream.length <= head_len:
            return REASON_NO_TAIL
        if stream.length > self.config.max_stream_length:
            return REASON_OVERSIZED
        if stream.unique_refs < self.config.min_unique_refs:
            return REASON_DEGENERATE
        if stream.heat <= 0:
            return REASON_NO_HEAT
        for sym in stream.symbols:
            if not 0 <= sym < num_symbols:
                return REASON_UNKNOWN_SYMBOL
        return None

    def quarantine(self, key: StreamKey, cycle: int) -> None:
        """Explicitly quarantine an identity (used by failure handling)."""
        self._quarantine[key] = cycle + self.config.quarantine_cycles

    def is_quarantined(self, key: StreamKey, cycle: int) -> bool:
        until = self._quarantine.get(key)
        return until is not None and cycle < until

    def _expire(self, cycle: int) -> None:
        expired = [key for key, until in self._quarantine.items() if until <= cycle]
        for key in expired:
            del self._quarantine[key]

    # --------------------------------------------------------- DFSM sanity

    def check_dfsm(self, dfsm, streams: list[HotDataStream]) -> None:
        """Raise :class:`AnalysisError` if a built DFSM is inconsistent.

        ``dfsm`` is duck-typed (``states``/``edges``/``completions``) so this
        module does not import the DFSM package.  These are invariants of the
        Figure 9 construction; a violation means the analysis state is
        corrupt and nothing from this cycle should be installed.
        """
        num_states = len(dfsm.states)
        if num_states < 1:
            raise AnalysisError("DFSM has no states (missing initial state)")
        num_streams = len(streams)
        for state_id, completed in dfsm.completions.items():
            if not 0 <= state_id < num_states:
                raise AnalysisError(f"DFSM completion for unknown state {state_id}")
            for v in completed:
                if not 0 <= v < num_streams:
                    raise AnalysisError(f"DFSM state {state_id} completes unknown stream {v}")
        for (source, _symbol), target in dfsm.edges.items():
            if not 0 <= source < num_states or not 0 <= target < num_states:
                raise AnalysisError(
                    f"DFSM edge {source}->{target} references an unknown state"
                )
