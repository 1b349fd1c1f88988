"""Configuration of the dynamic prefetching optimizer.

The defaults are *simulation-scale*: the paper profiles 1 second out of
every 50 on a 550 MHz machine with a 0.5% sampling rate (Section 4.1);
running the same absolute counter values under an interpreted simulator
would need billions of instructions per experiment.  The scaled settings
keep the paper's structure — short awake phases, long hibernation, bursts
spanning many checks — while letting an optimization cycle complete within a
few hundred thousand simulated instructions.  ``paper_scale`` returns the
verbatim Section 4.1 settings for anyone with patience.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from typing import Optional

from repro.analysis.hotstreams import AnalysisConfig
from repro.dfsm.codegen import PREFETCH_MODES
from repro.errors import ConfigError
from repro.profiling.sampling import (
    PAPER_COUNTERS,
    PAPER_N_AWAKE,
    PAPER_N_HIBERNATE,
    BurstyCounters,
)
from repro.resilience.faults import FaultPlan
from repro.resilience.guards import GuardConfig
from repro.resilience.watchdog import WatchdogConfig
from repro.wire import Wire


@dataclass(frozen=True)
class OptimizerConfig(Wire):
    """Knobs of the profile -> analyze/optimize -> hibernate cycle.

    Attributes:
        counters: awake-phase bursty-tracing counters.
        n_awake: awake burst-periods before analysis+optimization runs.
        n_hibernate: hibernating burst-periods before deoptimization.
        head_len: stream prefix length matched before prefetching
            (the paper settles on 2, Section 4.3).
        mode: ``dyn`` (the paper's scheme), ``seq`` (sequential baseline) or
            ``nopref`` (match but never prefetch).
        analyze: run hot-data-stream analysis at the end of awake phases
            (off = the "Prof" measurement level of Figure 11).
        inject: inject detection/prefetch code for the detected streams
            (off = the "Hds" level of Figure 11).
        analysis: hot-data-stream detection parameters.
        max_prefetches: cap on prefetches issued per completed match.
        max_dfsm_states: construction guard; on overflow the optimizer
            retries with the hottest half of the streams.
        guards: pre-install stream/DFSM validation bounds; None uses the
            (always-on) defaults.
        watchdog: per-stream prefetch-quality watchdog configuration; None
            disables the watchdog entirely (no attribution, no rollbacks —
            the pre-resilience behaviour, bit-identical cycle counts).
        faults: deterministic fault-injection plan; None injects nothing.
        max_optimizer_errors: consecutive contained analyze/optimize
            failures tolerated before the optimizer permanently hibernates
            (graceful degradation: the program keeps running unoptimized).
    """

    counters: BurstyCounters = field(default_factory=lambda: BurstyCounters(96, 64))
    n_awake: int = 60
    n_hibernate: int = 900
    head_len: int = 2
    mode: str = "dyn"
    analyze: bool = True
    inject: bool = True
    analysis: AnalysisConfig = field(
        default_factory=lambda: AnalysisConfig(
            heat_ratio=0.006,
            min_length=20,
            max_length=220,
            min_unique=10,
            max_streams=48,
        )
    )
    max_prefetches: int = 96
    max_dfsm_states: int = 2048
    guards: Optional[GuardConfig] = None
    watchdog: Optional[WatchdogConfig] = None
    faults: Optional[FaultPlan] = None
    max_optimizer_errors: int = 3

    def __post_init__(self) -> None:
        if self.mode not in PREFETCH_MODES:
            raise ConfigError(f"mode must be one of {PREFETCH_MODES}, got {self.mode!r}")
        if self.head_len < 1:
            raise ConfigError("head_len must be >= 1")
        if self.n_awake < 1 or self.n_hibernate < 1:
            raise ConfigError("n_awake and n_hibernate must be >= 1")
        if self.inject and not self.analyze:
            raise ConfigError("cannot inject without analyzing")
        if self.max_optimizer_errors < 1:
            raise ConfigError("max_optimizer_errors must be >= 1")


def paper_scale() -> OptimizerConfig:
    """The verbatim Section 4.1 settings (impractically slow to simulate)."""
    return OptimizerConfig(
        counters=PAPER_COUNTERS,
        n_awake=PAPER_N_AWAKE,
        n_hibernate=PAPER_N_HIBERNATE,
        analysis=AnalysisConfig(
            heat_ratio=0.01, min_length=2, max_length=100, min_unique=10
        ),
    )
