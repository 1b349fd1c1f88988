"""Counter arithmetic of the bursty-tracing framework (Sections 2.1–2.2).

The profiler alternates between checking and instrumented code using two
counters, ``nCheck`` and ``nInstr``; one *burst period* is
``nCheck0 + nInstr0`` dynamic checks.  Hibernation keeps the burst-period
length constant by setting ``nCheck`` to ``nCheck0 + nInstr0 - 1`` and
``nInstr`` to 1 (Figure 3), so awake and hibernating phases can be compared
in units of burst periods.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.errors import ConfigError
from repro.wire import Wire


@dataclass(frozen=True)
class BurstyCounters(Wire):
    """Reload values for the two bursty-tracing counters."""

    n_check0: int
    n_instr0: int

    def __post_init__(self) -> None:
        if self.n_check0 < 1 or self.n_instr0 < 1:
            raise ConfigError("counter reload values must be >= 1")

    @property
    def burst_period(self) -> int:
        """Dynamic checks per burst period."""
        return self.n_check0 + self.n_instr0

    @property
    def burst_sampling_rate(self) -> float:
        """Fraction of checks spent in instrumented code while awake."""
        return self.n_instr0 / self.burst_period

    def hibernating(self) -> "BurstyCounters":
        """The hibernation-phase counters with the same burst period."""
        return BurstyCounters(self.n_check0 + self.n_instr0 - 1, 1)


def overall_sampling_rate(counters: BurstyCounters, n_awake: int, n_hibernate: int) -> float:
    """Effective sampling rate over a whole awake+hibernate cycle.

    This is the paper's expression
    ``(nAwake*nInstr0) / ((nAwake+nHibernate) * (nInstr0+nCheck0))``.
    """
    if n_awake < 1 or n_hibernate < 0:
        raise ConfigError("need n_awake >= 1 and n_hibernate >= 0")
    return (n_awake * counters.n_instr0) / ((n_awake + n_hibernate) * counters.burst_period)


#: The paper's settings (Section 4.1): 0.5% sampling, 60-check bursts,
#: 50 awake burst-periods per 2,450 hibernating ones.
PAPER_COUNTERS = BurstyCounters(n_check0=11_940, n_instr0=60)
PAPER_N_AWAKE = 50
PAPER_N_HIBERNATE = 2_450
