"""Run metrics, rendered from a finished run's own counters.

A run's metrics snapshot is a pure function of the finished run:
:func:`run_metrics` reads the authoritative simulation counters
(:class:`~repro.interp.interpreter.ExecStats`, the hierarchy's cache and
:class:`~repro.machine.hierarchy.PrefetchStats` counters,
:class:`~repro.core.stats.OptimizerSummary`) and, for sessions with sinks,
an :class:`EventTally` — the one bus sink that counts events per kind and
buckets the prefetch lead times, which only exist as per-use data at event
time.  Nothing is kept live, so nothing can drift.

The snapshot is ``{"counters", "gauges", "histograms"}`` with names sorted.
Gauges are ``{"value", "cycle"}`` stamped with the run's final cycle;
histograms use fixed bucket upper bounds (values above the last bound land
in an overflow bucket) and serialize as ``{"bounds", "counts", "count",
"total"}``.
"""

from __future__ import annotations

import bisect
from typing import Iterable, Optional

#: Default bucket upper bounds (values above the last bound land in +Inf).
STREAM_LENGTH_BUCKETS = (2, 4, 8, 16, 32, 64, 128, 256)
LEAD_TIME_BUCKETS = (0, 10, 25, 50, 100, 250, 500, 1000, 2500)
DFSM_SIZE_BUCKETS = (4, 8, 16, 32, 64, 128, 256, 512, 1024, 2048)


def histogram(bounds: tuple[int, ...], values: Iterable[float]) -> dict[str, object]:
    """Fixed-bucket histogram of ``values``: counts per upper bound + overflow."""
    counts = [0] * (len(bounds) + 1)
    total = 0
    for value in values:
        counts[bisect.bisect_left(bounds, value)] += 1
        total += int(value)
    return {"bounds": list(bounds), "counts": counts, "count": sum(counts), "total": total}


class EventTally:
    """Bus sink counting events per kind and bucketing prefetch lead times.

    The ``events.<Kind>`` counters and the ``prefetch.lead_time`` histogram
    of :func:`run_metrics` come from here; every other metric is read off
    the simulation counters.
    """

    def __init__(self) -> None:
        self.kinds: dict[str, int] = {}
        self.lead_counts = [0] * (len(LEAD_TIME_BUCKETS) + 1)
        self.lead_total = 0

    def handle(self, event) -> None:
        kind = event.kind
        self.kinds[kind] = self.kinds.get(kind, 0) + 1
        if kind == "PrefetchUsed":
            self.lead_counts[bisect.bisect_left(LEAD_TIME_BUCKETS, event.lead)] += 1
            self.lead_total += int(event.lead)

    def lead_time(self) -> dict[str, object]:
        """The lead-time histogram in :func:`histogram`'s shape."""
        return {
            "bounds": list(LEAD_TIME_BUCKETS),
            "counts": list(self.lead_counts),
            "count": sum(self.lead_counts),
            "total": self.lead_total,
        }


def run_metrics(stats, hierarchy, summary=None, tally: Optional[EventTally] = None) -> dict:
    """The metrics snapshot of one finished run.

    ``stats`` is an :class:`~repro.interp.interpreter.ExecStats`,
    ``hierarchy`` a :class:`~repro.machine.hierarchy.MemoryHierarchy` or a
    :class:`~repro.machine.hierarchy.HierarchyStats` (anything with the
    counter surface), ``summary`` an optional
    :class:`~repro.core.stats.OptimizerSummary` and ``tally`` the session's
    :class:`EventTally` when its bus carried events (duck-typed to keep this
    package import-free of the simulation).
    """
    prefetch = hierarchy.prefetch
    l1, l2 = hierarchy.l1, hierarchy.l2
    counters: dict[str, int] = {
        "exec.cycles": stats.cycles,
        "exec.instructions": stats.instructions,
        "exec.memory_refs": stats.memory_refs,
        "exec.mem_stall_cycles": stats.mem_stall_cycles,
        "exec.checks_executed": stats.checks_executed,
        "exec.bursts": stats.bursts,
        "exec.traced_refs": stats.traced_refs,
        "exec.trace_charges": stats.trace_charges,
        "exec.detects_executed": stats.detects_executed,
        "exec.detect_cycles": stats.detect_cycles,
        "exec.prefetches_issued": stats.prefetches_issued,
        "exec.charged_cycles": stats.charged_cycles,
        "cache.demand_accesses": hierarchy.demand_accesses,
        "cache.l1.hits": l1.hits,
        "cache.l1.misses": l1.misses,
        "cache.l1.evictions": l1.evictions,
        "cache.l2.hits": l2.hits,
        "cache.l2.misses": l2.misses,
        "cache.l2.evictions": l2.evictions,
        "prefetch.issued": prefetch.issued,
        "prefetch.redundant": prefetch.redundant,
        "prefetch.useful": prefetch.useful,
        "prefetch.late": prefetch.late,
        "prefetch.wasted": prefetch.wasted,
    }
    for source, issued in prefetch.by_source.items():
        counters[f"prefetch.issued.{source}"] = issued
    gauges: dict[str, float] = {
        "exec.cpi": stats.cpi,
        "cache.l1.miss_rate": hierarchy.l1_miss_rate,
        "cache.l2.miss_rate": l2.misses / l2.accesses if l2.accesses else 0.0,
        "prefetch.accuracy": prefetch.accuracy,
        "prefetch.timeliness": prefetch.timeliness,
        "prefetch.pollution": prefetch.pollution,
    }
    histograms: dict[str, dict] = {}
    if tally is not None:
        for kind, n in tally.kinds.items():
            counters["events." + kind] = n
        histograms["prefetch.lead_time"] = tally.lead_time()
    if summary is not None:
        counters["optimizer.opt_cycles"] = summary.num_cycles
        gauges["optimizer.mean_traced_refs"] = summary.mean_traced_refs
        gauges["optimizer.mean_streams"] = summary.mean_streams
        gauges["optimizer.mean_dfsm_states"] = summary.mean_dfsm_states
        gauges["optimizer.mean_dfsm_transitions"] = summary.mean_dfsm_transitions
        gauges["optimizer.mean_injected_checks"] = summary.mean_injected_checks
        gauges["optimizer.mean_procs_modified"] = summary.mean_procs_modified
        histograms["optimizer.stream_length"] = histogram(
            STREAM_LENGTH_BUCKETS,
            [length for cycle in summary.cycles for length in cycle.stream_lengths],
        )
        histograms["optimizer.dfsm_states"] = histogram(
            DFSM_SIZE_BUCKETS, [cycle.dfsm_states for cycle in summary.cycles]
        )
    now = stats.cycles
    return {
        "counters": dict(sorted(counters.items())),
        "gauges": {name: {"value": value, "cycle": now} for name, value in sorted(gauges.items())},
        "histograms": dict(sorted(histograms.items())),
    }
