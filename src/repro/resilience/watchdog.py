"""Per-stream prefetch-quality watchdog: the measure half of *deoptimize*.

The memory hierarchy attributes every software prefetch it classifies
(useful / late / wasted) to the hot data stream whose handler issued it
(:meth:`repro.machine.hierarchy.MemoryHierarchy.set_stream_attribution`).
:class:`PrefetchWatchdog` polls those per-stream counters during hibernation,
maintains an EWMA benefit score per installed stream, and *condemns* streams
whose prefetches have stopped paying: accuracy collapsed below
``accuracy_floor`` or pollution climbed above ``pollution_ceiling``.

Condemned streams are blacklisted for ``blacklist_cycles`` optimization
cycles so the next awake phase does not immediately reinstall the same stale
stream; because stream identity is the full symbol sequence
(:func:`repro.resilience.guards.stream_key`), a *re-learned* stream with the
same head but a corrected tail is a different identity and installs freely.

The watchdog is pure policy: it inspects counters and returns verdicts.  The
optimizer applies them (targeted rollback via
:func:`repro.vulcan.dynamic_edit.reinject_detection`, or a full deoptimize
and an early return to profiling when no stream survives).  Scoring happens
at burst boundaries on host-side counters only, so an idle watchdog leaves
simulated cycle counts bit-identical.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.errors import ConfigError
from repro.resilience.guards import StreamKey
from repro.wire import Wire


@dataclass(frozen=True)
class WatchdogConfig(Wire):
    """Thresholds of the per-stream prefetch scoreboard.

    Attributes:
        check_every: hibernation burst-periods between scoreboard polls.
        min_samples: classified (non-redundant) prefetches a stream must
            accumulate before it can be judged; below this the EWMA is still
            warming up and a verdict would be noise.
        ewma_alpha: weight of the newest poll window in the running scores.
        accuracy_floor: condemn when the EWMA of (useful + late) / classified
            falls below this.
        pollution_ceiling: condemn when the EWMA of wasted / classified rises
            above this (late-but-used prefetches never count as pollution).
        blacklist_cycles: optimization cycles a condemned stream identity
            stays barred from reinstallation.
        wake_on_empty: when every installed stream has been rolled back,
            abandon the hibernation and re-enter profiling immediately.
    """

    check_every: int = 4
    min_samples: int = 24
    ewma_alpha: float = 0.35
    accuracy_floor: float = 0.25
    pollution_ceiling: float = 0.75
    blacklist_cycles: int = 2
    wake_on_empty: bool = True

    def __post_init__(self) -> None:
        if self.check_every < 1:
            raise ConfigError("check_every must be >= 1")
        if self.min_samples < 1:
            raise ConfigError("min_samples must be >= 1")
        if not 0.0 < self.ewma_alpha <= 1.0:
            raise ConfigError("ewma_alpha must be in (0, 1]")
        if not 0.0 <= self.accuracy_floor <= 1.0:
            raise ConfigError("accuracy_floor must be in [0, 1]")
        if not 0.0 <= self.pollution_ceiling <= 1.0:
            raise ConfigError("pollution_ceiling must be in [0, 1]")
        if self.blacklist_cycles < 0:
            raise ConfigError("blacklist_cycles must be >= 0")


@dataclass
class StreamScore:
    """Running quality score of one installed stream."""

    key: StreamKey
    #: EWMA of the per-window used fraction ((useful + late) / classified).
    accuracy: float = 1.0
    #: EWMA of the per-window wasted fraction.
    pollution: float = 0.0
    #: total classified prefetches observed for this stream this install
    samples: int = 0
    #: counter snapshot (useful, late, wasted) at the previous poll
    last: tuple[int, int, int] = (0, 0, 0)
    warmed: bool = False

    def update(self, useful: int, late: int, wasted: int, alpha: float) -> None:
        """Fold the counter deltas since the last poll into the EWMAs."""
        du = useful - self.last[0]
        dl = late - self.last[1]
        dw = wasted - self.last[2]
        self.last = (useful, late, wasted)
        classified = du + dl + dw
        if classified <= 0:
            return
        window_accuracy = (du + dl) / classified
        window_pollution = dw / classified
        if not self.warmed:
            self.accuracy = window_accuracy
            self.pollution = window_pollution
            self.warmed = True
        else:
            self.accuracy += alpha * (window_accuracy - self.accuracy)
            self.pollution += alpha * (window_pollution - self.pollution)
        self.samples += classified


@dataclass
class Verdict:
    """One condemnation, with the evidence that drove it."""

    key: StreamKey
    accuracy: float
    pollution: float
    samples: int
    reason: str = ""

    def __post_init__(self) -> None:
        if not self.reason:
            self.reason = "accuracy" if self.accuracy <= self.pollution else "pollution"


@dataclass
class PrefetchWatchdog:
    """Scores installed streams from per-stream prefetch counters."""

    config: WatchdogConfig = field(default_factory=WatchdogConfig)
    scores: dict[StreamKey, StreamScore] = field(default_factory=dict)
    #: condemned identity -> first optimization cycle it may return
    blacklist: dict[StreamKey, int] = field(default_factory=dict)
    deopts_total: int = 0
    polls_total: int = 0

    # ------------------------------------------------------------- lifecycle

    def begin_install(self, keys: list[StreamKey], stream_stats: dict) -> None:
        """Start scoring a fresh install of ``keys``.

        Counter *snapshots* are taken from ``stream_stats`` (the hierarchy's
        cumulative per-stream counters) so deltas measured later belong
        entirely to this install, even for an identity seen before.
        """
        self.scores = {}
        for key in keys:
            score = StreamScore(key=key)
            stats = stream_stats.get(key)
            if stats is not None:
                score.last = (stats.useful, stats.late, stats.wasted)
            self.scores[key] = score

    def retain(self, keys: list[StreamKey], stream_stats: dict) -> None:
        """Narrow the scoreboard to ``keys`` after a targeted rollback.

        Surviving streams keep their EWMA history; keys the rebuild added
        back (DFSM backoff can reshuffle the set) start fresh snapshots.
        """
        wanted = set(keys)
        self.scores = {key: score for key, score in self.scores.items() if key in wanted}
        for key in wanted - set(self.scores):
            score = StreamScore(key=key)
            stats = stream_stats.get(key)
            if stats is not None:
                score.last = (stats.useful, stats.late, stats.wasted)
            self.scores[key] = score

    def end_install(self) -> None:
        """Stop scoring (full deoptimization happened)."""
        self.scores = {}

    # --------------------------------------------------------------- polling

    def poll(self, stream_stats: dict) -> list[Verdict]:
        """Update scores from the hierarchy counters; return condemnations.

        Condemned keys are removed from the scoreboard and blacklisted by
        the caller via :meth:`condemn` (split so the optimizer can emit
        telemetry between verdict and blacklist with the cycle index it
        owns).
        """
        self.polls_total += 1
        config = self.config
        verdicts: list[Verdict] = []
        for key, score in self.scores.items():
            stats = stream_stats.get(key)
            if stats is None:
                continue
            score.update(stats.useful, stats.late, stats.wasted, config.ewma_alpha)
            if score.samples < config.min_samples:
                continue
            if score.accuracy < config.accuracy_floor or (
                score.pollution > config.pollution_ceiling
            ):
                verdicts.append(
                    Verdict(
                        key=key,
                        accuracy=score.accuracy,
                        pollution=score.pollution,
                        samples=score.samples,
                    )
                )
        for verdict in verdicts:
            del self.scores[verdict.key]
        return verdicts

    # ------------------------------------------------------------- blacklist

    def condemn(self, key: StreamKey, cycle: int) -> None:
        """Blacklist ``key`` until ``cycle + blacklist_cycles``."""
        self.deopts_total += 1
        if self.config.blacklist_cycles > 0:
            self.blacklist[key] = cycle + self.config.blacklist_cycles

    def is_blacklisted(self, key: StreamKey, cycle: int) -> bool:
        until = self.blacklist.get(key)
        if until is None:
            return False
        if cycle >= until:
            del self.blacklist[key]
            return False
        return True
