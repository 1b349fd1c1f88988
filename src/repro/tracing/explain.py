"""`repro-bench explain`: per-stream prefetch scorecards with cycle context.

Answers the question the aggregate tables can't: *which* hot data streams
earned their keep.  One instrumented run (span tracing + prefetch ledger at
full sampling) is executed per workload, and every stream that issued a
prefetch gets a scorecard — fate histogram, timeliness distribution,
watchdog verdicts, and an estimated cycles-saved figure set against the
run's cycle-attribution breakdown.

Kept out of ``repro.tracing.__init__`` on purpose: this module pulls in the
bench runner (and through it the whole workload stack), while the package
root stays importable from the interpreter's hot path.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional

from repro.core.config import OptimizerConfig
from repro.errors import ConfigError
from repro.machine.config import PAPER_MACHINE, MachineConfig
from repro.telemetry.session import TelemetrySession
from repro.telemetry.sinks import ListSink
from repro.tracing.attribution import CycleAttribution, ProcAttribution
from repro.tracing.ledger import StreamLedgerStats


def _percentile(values: list, fraction: float) -> int:
    """Nearest-rank percentile of an unsorted list (0 when empty)."""
    if not values:
        return 0
    ordered = sorted(values)
    rank = min(len(ordered) - 1, int(fraction * len(ordered)))
    return ordered[rank]


@dataclass
class StreamScorecard:
    """One stream's prefetch ledger rolled up for presentation."""

    sid: str
    name: str
    stats: StreamLedgerStats
    #: watchdog rollback verdicts that named this stream (reason strings)
    verdicts: list = field(default_factory=list)
    #: stall cycles the hierarchy would have charged without this stream's
    #: prefetches — useful hits save a full memory round trip, late ones
    #: save the portion already covered when the demand access arrived.
    #: An upper bound: it ignores second-order cache-occupancy effects.
    est_saved: int = 0

    @property
    def fate_row(self) -> tuple:
        s = self.stats
        return (s.useful, s.late, s.redundant, s.polluting, s.wasted, s.inflight)


@dataclass
class WorkloadExplanation:
    """Everything ``repro-bench explain`` knows about one workload run."""

    workload: str
    level: str
    cycles: int
    attribution: CycleAttribution
    scorecards: list
    #: ledger-vs-PrefetchStats mismatches (empty on a healthy run)
    mismatches: list = field(default_factory=list)
    #: per-procedure cycle attribution (``--by-proc``); None when not recorded
    by_proc: Optional[ProcAttribution] = None
    #: True when built offline from a trace/chunk summary (no scorecards)
    offline: bool = False

    def scorecard(self, sid: str) -> StreamScorecard:
        for card in self.scorecards:
            if card.sid == sid:
                return card
        known = ", ".join(c.sid for c in self.scorecards) or "(none)"
        raise ConfigError(f"unknown stream id {sid!r}; known: {known}")


def explain_level(
    name: str,
    level: str = "dyn",
    machine: MachineConfig = PAPER_MACHINE,
    opt: Optional[OptimizerConfig] = None,
    passes: Optional[int] = None,
    by_proc: bool = False,
) -> WorkloadExplanation:
    """Run ``name`` at ``level`` with full tracing and build its explanation.

    ``by_proc=True`` additionally records per-procedure cycle attribution
    (the 7-category split gains a procedure dimension; see
    :class:`~repro.tracing.attribution.ProcAttrRecorder` for the PC→procedure
    mapping rules and the Section 3.2 stale-frame caveat).
    """
    from repro.bench.runner import run_level

    sink = ListSink()
    session = TelemetrySession(
        sinks=[sink],
        miss_sample_every=1,
        prefetch_sample_every=1,
        tracing=True,
        track_prefetches=True,
        proc_attribution=by_proc,
    )
    result = run_level(name, level, machine, opt, passes=passes, telemetry=session)
    ledger = session.ledger
    hierarchy = result.hierarchy

    verdicts: dict[str, list] = {}
    for event in sink.events:
        if event.kind == "StreamDeoptimized":
            verdicts.setdefault(event.stream, []).append(event.reason)

    cards = []
    per_stream = ledger.per_stream()
    ordered = sorted(per_stream.items(), key=lambda kv: (-kv[1].issued, str(kv[0])))
    for index, (key, stats) in enumerate(ordered, start=1):
        stream_name = hierarchy.stream_names.get(key, str(key))
        saved = stats.useful * machine.memory_latency
        for residual in stats.residuals:
            saved += max(0, machine.memory_latency - residual)
        cards.append(
            StreamScorecard(
                sid=f"s{index}",
                name=stream_name,
                stats=stats,
                verdicts=verdicts.get(stream_name, []),
                est_saved=saved,
            )
        )

    mismatches = ledger.reconcile(hierarchy.prefetch, hierarchy.stream_stats)

    return WorkloadExplanation(
        workload=name,
        level=level,
        cycles=result.cycles,
        attribution=CycleAttribution.from_run(result.stats, machine),
        scorecards=cards,
        mismatches=mismatches,
        by_proc=(
            ProcAttribution.from_recorder(session.proc_attr, machine)
            if by_proc and session.proc_attr is not None
            else None
        ),
    )


def offline_explanations(path) -> list[WorkloadExplanation]:
    """Rebuild explanations from a trace artifact, without re-simulating.

    ``path`` may be a chunk directory (:mod:`repro.obs.chunks`) or a
    monolithic Chrome trace JSON written with summaries — the two carry the
    same per-run summary documents, so ``repro-bench explain --from`` accepts
    them interchangeably.  Stream scorecards need a live ledger and are not
    part of summaries; offline explanations carry attribution (and per-proc
    rows when the traced run recorded them) only.
    """
    import json
    import os

    from repro.obs.chunks import is_chunk_dir, load_chunks

    if is_chunk_dir(path):
        load = load_chunks(path)
        summaries = load.summaries
    elif os.path.isfile(path):
        try:
            with open(os.fspath(path), "r", encoding="utf-8") as fh:
                document = json.load(fh)
        except (OSError, json.JSONDecodeError, UnicodeDecodeError) as exc:
            raise ConfigError(f"cannot read {path} as a trace JSON: {exc}") from exc
        summaries = document.get("reproSummaries", []) if isinstance(document, dict) else []
    else:
        raise ConfigError(f"{path} is neither a chunk directory nor a trace JSON file")
    out = []
    for doc in summaries:
        if not isinstance(doc, dict):
            continue
        by_proc_doc = doc.get("by_proc")
        out.append(
            WorkloadExplanation(
                workload=str(doc.get("workload", "?")),
                level=str(doc.get("level", "?")),
                cycles=int(doc.get("cycles", 0)),
                attribution=CycleAttribution.from_dict(doc.get("attribution", {})),
                scorecards=[],
                by_proc=(
                    ProcAttribution.from_dict(by_proc_doc)
                    if isinstance(by_proc_doc, dict)
                    else None
                ),
                offline=True,
            )
        )
    if not out:
        raise ConfigError(
            f"{path} carries no run summaries; re-export with --telemetry DIR or "
            "a summaries-enabled trace"
        )
    return out


@dataclass
class LevelDiff:
    """Two runs of one workload at different levels, lined up for diffing.

    Built from engine results (``repro-bench explain --against``), so both
    sides replay from the result cache when their fingerprints are warm —
    attribution and prefetch counters survive serialization, which is all a
    diff needs.  ``from_cache`` flags report where each side came from.
    """

    workload: str
    level_a: str
    level_b: str
    cycles_a: int
    cycles_b: int
    attribution_a: CycleAttribution
    attribution_b: CycleAttribution
    prefetch_a: dict[str, int]
    prefetch_b: dict[str, int]
    from_cache_a: bool = False
    from_cache_b: bool = False

    @property
    def overhead_pct(self) -> float:
        """Percent cycle change of side B relative to side A."""
        if self.cycles_a == 0:
            raise ConfigError(
                f"cannot normalize {self.workload}/{self.level_b} against "
                f"{self.workload}/{self.level_a}: baseline ran 0 cycles"
            )
        return 100.0 * (self.cycles_b - self.cycles_a) / self.cycles_a


def _prefetch_counters(result) -> dict[str, int]:
    pf = result.hierarchy.prefetch
    return {
        "issued": pf.issued,
        "useful": pf.useful,
        "late": pf.late,
        "redundant": pf.redundant,
        "wasted": pf.wasted,
    }


def diff_levels(result_a, result_b, machine: MachineConfig = PAPER_MACHINE) -> LevelDiff:
    """Compare ``result_b``'s level against ``result_a``'s, two runs of one
    workload on ``machine``.

    The caller reads both runs from its
    :class:`~repro.bench.figures.ResultCache`, so with a
    :class:`~repro.engine.cache.ResultStore` attached either side replays
    from the content-addressed cache instead of simulating.
    """
    return LevelDiff(
        workload=result_a.workload,
        level_a=result_a.level,
        level_b=result_b.level,
        cycles_a=result_a.cycles,
        cycles_b=result_b.cycles,
        attribution_a=CycleAttribution.from_run(result_a.stats, machine),
        attribution_b=CycleAttribution.from_run(result_b.stats, machine),
        prefetch_a=_prefetch_counters(result_a),
        prefetch_b=_prefetch_counters(result_b),
        from_cache_a=result_a.from_cache,
        from_cache_b=result_b.from_cache,
    )


def render_level_diff(diff: LevelDiff) -> str:
    """Render a :class:`LevelDiff` as aligned attribution/prefetch tables."""
    from repro.bench.reporting import format_table

    def origin(from_cache: bool) -> str:
        return "cached" if from_cache else "live"

    title = (
        f"{diff.workload}: {diff.level_a} ({origin(diff.from_cache_a)}) vs "
        f"{diff.level_b} ({origin(diff.from_cache_b)}) — "
        f"{diff.cycles_a} -> {diff.cycles_b} cycles ({diff.overhead_pct:+.1f}%)"
    )
    rows = []
    for (label, cycles_a, _), (_, cycles_b, _) in zip(
        diff.attribution_a.rows(), diff.attribution_b.rows()
    ):
        rows.append((label, cycles_a, cycles_b, cycles_b - cycles_a))
    rows.append(("total", diff.cycles_a, diff.cycles_b, diff.cycles_b - diff.cycles_a))
    blocks = [
        format_table(
            ("category", diff.level_a, diff.level_b, "delta"),
            rows,
            title=title,
        )
    ]
    pf_rows = [
        (key, diff.prefetch_a[key], diff.prefetch_b[key], diff.prefetch_b[key] - diff.prefetch_a[key])
        for key in diff.prefetch_a
    ]
    blocks.append(
        format_table(
            ("prefetch", diff.level_a, diff.level_b, "delta"),
            pf_rows,
            title="prefetch fates",
        )
    )
    return "\n\n".join(blocks)


def render_explanation(exp: WorkloadExplanation, stream: Optional[str] = None) -> str:
    """Render an explanation (or one stream's detailed view) as text."""
    from repro.bench.reporting import format_table

    blocks = []
    att = exp.attribution
    rows = [(label, cycles, f"{share:6.2%}") for label, cycles, share in att.rows()]
    rows.append(("total", att.total, f"{1.0:6.2%}"))
    blocks.append(
        format_table(
            ("category", "cycles", "share"),
            rows,
            title=f"{exp.workload}/{exp.level}: cycle attribution ({exp.cycles} cycles)",
        )
    )

    if exp.by_proc is not None:
        proc_rows = []
        for proc_name, att_p in exp.by_proc.rows:
            proc_rows.append(
                (
                    proc_name,
                    att_p.total,
                    att_p.user_work,
                    att_p.mem_stall,
                    att_p.check_overhead,
                    att_p.trace_record,
                    att_p.dfsm_detect,
                    att_p.prefetch_issue,
                    att_p.analysis,
                )
            )
        totals = exp.by_proc.totals()
        proc_rows.append(
            (
                "total",
                totals["total"],
                totals["user_work"],
                totals["mem_stall"],
                totals["check_overhead"],
                totals["trace_record"],
                totals["dfsm_detect"],
                totals["prefetch_issue"],
                totals["analysis"],
            )
        )
        blocks.append(
            format_table(
                ("procedure", "cycles", "work", "stall", "check", "trace", "detect", "pf", "analysis"),
                proc_rows,
                title=f"per-procedure attribution ({len(exp.by_proc.rows)} procedures)",
            )
        )

    if exp.offline:
        blocks.append(
            "(offline explanation from trace summaries; per-stream scorecards "
            "need a live run)"
        )
    elif stream is not None:
        card = exp.scorecard(stream)
        s = card.stats
        detail = [
            f"stream {card.sid}: {card.name}",
            f"  issued     {s.issued}",
            f"  useful     {s.useful}",
            f"  late       {s.late}",
            f"  redundant  {s.redundant}",
            f"  polluting  {s.polluting}",
            f"  wasted     {s.wasted}",
            f"  inflight   {s.inflight}",
            f"  accuracy   {s.accuracy:.2%}  timeliness {s.timeliness:.2%}",
            f"  lead p50/p90 (cycles)  {_percentile(s.leads, 0.5)}/{_percentile(s.leads, 0.9)}",
            f"  est. stall cycles saved  {card.est_saved}"
            f"  ({card.est_saved / exp.cycles:.2%} of run)",
        ]
        if card.verdicts:
            detail.append("  watchdog verdicts: " + "; ".join(card.verdicts))
        else:
            detail.append("  watchdog verdicts: none")
        blocks.append("\n".join(detail))
    else:
        rows = []
        for card in exp.scorecards:
            s = card.stats
            rows.append(
                (
                    card.sid,
                    card.name,
                    s.issued,
                    s.useful,
                    s.late,
                    s.redundant,
                    s.polluting + s.wasted,
                    f"{s.accuracy:.0%}",
                    _percentile(s.leads, 0.5),
                    card.est_saved,
                    len(card.verdicts),
                )
            )
        if rows:
            blocks.append(
                format_table(
                    (
                        "id",
                        "stream",
                        "issued",
                        "useful",
                        "late",
                        "redun",
                        "bad",
                        "acc",
                        "lead-p50",
                        "est-saved",
                        "verdicts",
                    ),
                    rows,
                    title=f"per-stream scorecards ({len(rows)} streams)",
                )
            )
        else:
            blocks.append("no stream issued a prefetch at this level")

    if exp.mismatches:
        blocks.append(
            "LEDGER MISMATCHES:\n" + "\n".join(f"  - {m}" for m in exp.mismatches)
        )
    return "\n\n".join(blocks)
