"""The outcome of one (workload, level) execution, serializable both ways.

:class:`RunResult` historically lived in :mod:`repro.bench.runner`; it moved
here so the engine's cache and executor can round-trip results without
importing the bench layer (``repro.bench.runner`` re-exports it, so existing
imports keep working).

The round trip is exact: ``RunResult.from_dict(r.to_dict()).to_dict() ==
r.to_dict()`` bit for bit, which is what lets the result cache replay a run
instead of simulating it.  A live result holds the run's
:class:`~repro.machine.hierarchy.MemoryHierarchy`; a deserialized one holds
the equivalent :class:`~repro.machine.hierarchy.HierarchyStats` snapshot —
both expose the same counter surface (``.l1``/``.l2``/``.prefetch``/
``.stream_stats``/``.l1_miss_rate``), so downstream consumers never care
which they got.
"""

from __future__ import annotations

import copy
from dataclasses import dataclass
from typing import Optional, Union

from repro.core.stats import OptimizerSummary
from repro.errors import ConfigError
from repro.interp.interpreter import ExecStats
from repro.machine.hierarchy import HierarchyStats, MemoryHierarchy

#: Format version stamped into serialized results; bump on schema changes.
RESULT_FORMAT = 1


@dataclass
class RunResult:
    """Outcome of one (workload, level) execution."""

    workload: str
    level: str
    stats: ExecStats
    hierarchy: Union[MemoryHierarchy, HierarchyStats]
    summary: Optional[OptimizerSummary]
    #: run-level metrics snapshot, always populated: rendered from the
    #: simulation counters at finalize time
    #: (:func:`~repro.telemetry.metrics.run_metrics`)
    metrics: Optional[dict] = None
    #: True when this result was replayed from the result cache
    from_cache: bool = False

    @property
    def cycles(self) -> int:
        return self.stats.cycles

    def overhead_vs(self, baseline: "RunResult") -> float:
        """Percent overhead relative to ``baseline`` (negative = speedup)."""
        if baseline.cycles == 0:
            raise ConfigError(
                f"cannot normalize {self.workload}/{self.level} against "
                f"{baseline.workload}/{baseline.level}: baseline ran 0 cycles"
            )
        return 100.0 * (self.cycles - baseline.cycles) / baseline.cycles

    def to_dict(self) -> dict[str, object]:
        """Exact serialized form (pure function of the run's content).

        Written by hand rather than by :class:`~repro.wire.Wire`: a live
        result encodes its :class:`MemoryHierarchy` through
        ``stats_snapshot()``, and ``from_cache`` is transport state.
        """
        return {
            "format": RESULT_FORMAT,
            "workload": self.workload,
            "level": self.level,
            "stats": self.stats.to_dict(),
            "hierarchy": self.hierarchy.stats_snapshot().to_dict(),
            "summary": None if self.summary is None else self.summary.to_dict(),
            "metrics": copy.deepcopy(self.metrics),
        }

    @classmethod
    def from_dict(cls, data: dict[str, object]) -> "RunResult":
        """Inverse of :meth:`to_dict`; by hand because ``hierarchy`` is a
        two-member Union, which :class:`~repro.wire.Wire` does not decode."""
        fmt = data.get("format")
        if fmt != RESULT_FORMAT:
            raise ConfigError(f"unsupported serialized RunResult format {fmt!r}")
        summary = data.get("summary")
        return cls(
            workload=str(data["workload"]),
            level=str(data["level"]),
            stats=ExecStats.from_dict(data["stats"]),
            hierarchy=HierarchyStats.from_dict(data["hierarchy"]),
            summary=None if summary is None else OptimizerSummary.from_dict(summary),
            metrics=copy.deepcopy(data.get("metrics")),
        )
