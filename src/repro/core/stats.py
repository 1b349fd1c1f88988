"""Per-optimization-cycle statistics (the raw material of Table 2)."""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.wire import Wire


@dataclass
class OptCycleStats(Wire):
    """What one profile -> analyze -> optimize cycle saw and did."""

    cycle: int
    traced_refs: int
    num_streams: int
    dfsm_states: int
    dfsm_transitions: int
    injected_checks: int
    procs_modified: int
    stream_lengths: list[int] = field(default_factory=list)
    #: simulated cycles charged for this cycle's online analysis (the Hds
    #: slice of the cycle-attribution ledger, per optimization cycle)
    analysis_charged: int = 0
    #: simulated cycle at which the analysis ran (0 = unrecorded)
    at_cycle: int = 0

    @property
    def mean_stream_length(self) -> float:
        if not self.stream_lengths:
            return 0.0
        return sum(self.stream_lengths) / len(self.stream_lengths)

    def to_dict(self) -> dict[str, object]:
        """The field form plus the derived ``mean_stream_length``, which
        :meth:`from_dict` ignores and recomputes."""
        return {**super().to_dict(), "mean_stream_length": self.mean_stream_length}


@dataclass
class OptimizerSummary(Wire):
    """Aggregate over all completed cycles of one run (one Table 2 row).

    The resilience counters extend the Table 2 view: guarded optimization
    (``guard_rejections``), the watchdog's per-stream rollbacks
    (``stream_deopts`` and the early returns to profiling they trigger),
    contained analyze/optimize failures (``optimizer_errors``) and fired
    fault injections (``faults_injected``).
    """

    cycles: list[OptCycleStats] = field(default_factory=list)
    guard_rejections: int = 0
    stream_deopts: int = 0
    early_wakes: int = 0
    optimizer_errors: int = 0
    faults_injected: int = 0

    @property
    def num_cycles(self) -> int:
        return len(self.cycles)

    def _mean(self, attr: str) -> float:
        if not self.cycles:
            return 0.0
        return sum(getattr(c, attr) for c in self.cycles) / len(self.cycles)

    @property
    def mean_traced_refs(self) -> float:
        return self._mean("traced_refs")

    @property
    def mean_streams(self) -> float:
        return self._mean("num_streams")

    @property
    def mean_dfsm_states(self) -> float:
        return self._mean("dfsm_states")

    @property
    def mean_dfsm_transitions(self) -> float:
        return self._mean("dfsm_transitions")

    @property
    def mean_injected_checks(self) -> float:
        return self._mean("injected_checks")

    @property
    def mean_procs_modified(self) -> float:
        return self._mean("procs_modified")

    @property
    def analysis_charged(self) -> int:
        """Total simulated cycles billed for awake-phase analyses."""
        return sum(c.analysis_charged for c in self.cycles)

    def to_dict(self) -> dict[str, object]:
        """Serializable Table 2 row: the field form plus the aggregates,
        which :meth:`from_dict` ignores and recomputes.

        This is the shape the telemetry metrics exporter embeds, so consumers
        never reach into dataclass internals.
        """
        doc = super().to_dict()
        for name in (
            "num_cycles", "mean_traced_refs", "mean_streams", "mean_dfsm_states",
            "mean_dfsm_transitions", "mean_injected_checks", "mean_procs_modified",
            "analysis_charged",
        ):
            doc[name] = getattr(self, name)
        return doc
