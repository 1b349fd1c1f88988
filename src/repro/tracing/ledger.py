"""Per-prefetch lifecycle ledger: every issued prefetch, issue to fate.

The aggregate :class:`~repro.machine.hierarchy.PrefetchStats` answers *how
many* prefetches were useful/late/wasted; this ledger answers *which ones* —
it follows every :meth:`~repro.machine.hierarchy.MemoryHierarchy.issue_prefetch`
from its issue cycle, source tag and originating hot stream to its terminal
fate, with issue→use cycle deltas.  Fates refine the aggregate taxonomy:

==============  ===========================================================
``redundant``   target was already cache-resident or in flight (no-op)
``useful``      a demand access consumed the block after its data arrived
``late``        a demand access arrived first and paid the residual stall
``polluting``   evicted without serving a demand access (displaced data)
``wasted``      still unused at a cache flush or end of run
``inflight``    not yet classified (only while the run is live)
==============  ===========================================================

``polluting + wasted`` together equal the aggregate ``wasted`` counter;
:meth:`PrefetchLedger.reconcile` checks the full correspondence.

The ledger is host-side bookkeeping attached via
:attr:`MemoryHierarchy.ledger` (``None`` by default — the hierarchy's hot
paths pay one ``is not None`` check per *classification*, not per access).
Recording never changes stall accounting; the tracing observer-effect
invariant pins this down.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional

#: Terminal fates, in report order.
TERMINAL_FATES = ("redundant", "useful", "late", "polluting", "wasted")
FATES = TERMINAL_FATES + ("inflight",)


@dataclass(slots=True)
class PrefetchRecord:
    """One issued prefetch and everything that happened to it."""

    block: int
    issued_at: int
    source: str
    #: originating stream key (None = unattributed: head block, hw prefetch,
    #: or issued outside an install window)
    stream: Optional[object]
    fate: str = "inflight"
    fate_cycle: int = -1
    #: issue→use distance in cycles (useful/late only)
    lead: int = 0
    #: residual stall paid by the demand access (late only)
    residual: int = 0


@dataclass
class StreamLedgerStats:
    """Per-stream aggregation of ledger records (scorecard raw material)."""

    issued: int = 0
    redundant: int = 0
    useful: int = 0
    late: int = 0
    polluting: int = 0
    wasted: int = 0
    inflight: int = 0
    leads: list[int] = field(default_factory=list)
    residuals: list[int] = field(default_factory=list)

    @property
    def used(self) -> int:
        return self.useful + self.late

    @property
    def classified(self) -> int:
        """Non-redundant prefetches that met a terminal fate."""
        return self.useful + self.late + self.polluting + self.wasted

    @property
    def accuracy(self) -> float:
        total = self.classified
        return self.used / total if total else 0.0

    @property
    def timeliness(self) -> float:
        used = self.used
        return self.useful / used if used else 0.0


class PrefetchLedger:
    """Accumulates :class:`PrefetchRecord` entries over one run.

    The hierarchy calls the ``on_*`` hooks at exactly the points where it
    updates :class:`~repro.machine.hierarchy.PrefetchStats`, so ledger totals
    and aggregate counters agree by construction; drift between them is a
    bug that :meth:`reconcile` reports.
    """

    def __init__(self) -> None:
        self.records: list[PrefetchRecord] = []
        #: block -> its open (non-redundant, unclassified) record
        self._open: dict[int, PrefetchRecord] = {}
        self.fate_counts: dict[str, int] = {fate: 0 for fate in TERMINAL_FATES}

    # ------------------------------------------------------- hierarchy hooks

    def on_issue(
        self, block: int, cycle: int, source: str, stream: Optional[object], redundant: bool
    ) -> None:
        record = PrefetchRecord(block=block, issued_at=cycle, source=source, stream=stream)
        self.records.append(record)
        if redundant:
            record.fate = "redundant"
            record.fate_cycle = cycle
            self.fate_counts["redundant"] += 1
            return
        # The hierarchy never double-opens a block: a re-prefetch of a block
        # with an open record is always classified redundant (it is either
        # L1-resident or in flight).  Guard anyway so a future regression
        # shows up as an orphaned record, not silent corruption.
        orphan = self._open.get(block)
        if orphan is not None:
            self._close(orphan, "wasted", cycle)
        self._open[block] = record

    def on_use(self, block: int, cycle: int, late: bool, lead: int, residual: int = 0) -> None:
        record = self._open.pop(block, None)
        if record is None:
            return
        record.lead = lead
        record.residual = residual
        self._close(record, "late" if late else "useful", cycle)

    def on_evict(self, block: int, cycle: int) -> None:
        """The block left the hierarchy unused mid-run: pure pollution."""
        record = self._open.pop(block, None)
        if record is not None:
            self._close(record, "polluting", cycle)

    def on_expire(self, block: int, cycle: int) -> None:
        """Still unused at a flush or at end of run: wasted."""
        record = self._open.pop(block, None)
        if record is not None:
            self._close(record, "wasted", cycle)

    def _close(self, record: PrefetchRecord, fate: str, cycle: int) -> None:
        record.fate = fate
        record.fate_cycle = cycle
        self.fate_counts[fate] += 1

    # ---------------------------------------------------------- aggregation

    @property
    def issued(self) -> int:
        return len(self.records)

    @property
    def open_count(self) -> int:
        return len(self._open)

    def per_stream(self) -> dict[Optional[object], StreamLedgerStats]:
        """Aggregate records by originating stream (None = unattributed)."""
        out: dict[Optional[object], StreamLedgerStats] = {}
        for record in self.records:
            stats = out.get(record.stream)
            if stats is None:
                stats = out[record.stream] = StreamLedgerStats()
            stats.issued += 1
            setattr(stats, record.fate, getattr(stats, record.fate) + 1)
            if record.fate in ("useful", "late"):
                stats.leads.append(record.lead)
                if record.fate == "late":
                    stats.residuals.append(record.residual)
        return out

    def reconcile(self, prefetch_stats, stream_stats=None) -> list[str]:
        """Diff ledger totals against a :class:`PrefetchStats`; [] = agree.

        The aggregate ``wasted`` counter covers both mid-run pollution and
        end-of-run expiry, so it corresponds to ``polluting + wasted`` here.
        With ``stream_stats`` (the hierarchy's per-stream counters), each
        stream's issued/useful/late counts are diffed too.
        """
        mismatches: list[str] = []
        counts = self.fate_counts

        def check(label: str, ledger_value: int, stats_value: int) -> None:
            if ledger_value != stats_value:
                mismatches.append(f"{label}: ledger {ledger_value} != stats {stats_value}")

        check("issued", self.issued, prefetch_stats.issued)
        check("redundant", counts["redundant"], prefetch_stats.redundant)
        check("useful", counts["useful"], prefetch_stats.useful)
        check("late", counts["late"], prefetch_stats.late)
        check("wasted", counts["polluting"] + counts["wasted"], prefetch_stats.wasted)
        if self._open:
            mismatches.append(f"{len(self._open)} records still open (run not finalized?)")
        if stream_stats is not None:
            for key, stats in self.per_stream().items():
                hier = stream_stats.get(key)
                if hier is None:
                    mismatches.append(f"ledger stream {key!r} unknown to the hierarchy")
                    continue
                for attr in ("issued", "useful", "late"):
                    if getattr(hier, attr) != getattr(stats, attr):
                        mismatches.append(
                            f"stream {key!r} {attr}: ledger {getattr(stats, attr)} "
                            f"!= hierarchy {getattr(hier, attr)}"
                        )
        return mismatches
