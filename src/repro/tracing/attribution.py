"""Cycle attribution: charge every simulated cycle to one category.

The interpreter's cost model is a sum of explicit charges (see
:class:`~repro.machine.config.MachineConfig`), so a finished run's cycle
count decomposes *exactly*:

``cycles = instructions + mem_stall + checks*check_cost +
trace_charges*trace_cost + detect_cycles + prefetches*prefetch_issue_cost +
charged_cycles``

:class:`CycleAttribution` materializes that identity per run — the per-
workload version of Figure 11's Base/Prof/Hds decomposition, with the "Hds"
bar further split into trace recording, DFSM detection, prefetch issue and
analysis.  ``conserved`` asserts the identity holds to the cycle; the oracle
invariant :func:`repro.oracle.invariants.check_cycle_attribution` runs it on
every measurement level.

Everything here is arithmetic over counters the run already produced —
building an attribution never touches the simulation.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING

from repro.wire import Wire

if TYPE_CHECKING:  # pragma: no cover - typing only, avoids interp import
    from repro.interp.interpreter import ExecStats
    from repro.machine.config import MachineConfig

#: Attribution categories, in report order, with display labels.
CATEGORY_LABELS = (
    ("user_work", "user work (1 cycle/instruction)"),
    ("mem_stall", "memory stall"),
    ("check_overhead", "bursty-tracing checks (Base)"),
    ("trace_record", "trace recording (Prof)"),
    ("dfsm_detect", "DFSM detection handlers"),
    ("prefetch_issue", "prefetch issue"),
    ("analysis", "online analysis (Hds)"),
)
CATEGORIES = tuple(name for name, _ in CATEGORY_LABELS)


@dataclass(frozen=True)
class CycleAttribution(Wire):
    """Exact decomposition of one run's simulated cycles.

    Every category defaults to 0, so a summary document that lacks one (an
    ``explain --from`` input) decodes leniently.
    """

    total: int = 0
    user_work: int = 0
    mem_stall: int = 0
    check_overhead: int = 0
    trace_record: int = 0
    dfsm_detect: int = 0
    prefetch_issue: int = 0
    analysis: int = 0

    @classmethod
    def from_run(cls, stats: "ExecStats", machine: "MachineConfig") -> "CycleAttribution":
        """Attribute a finished run's cycles from its counters + cost model."""
        return cls(
            total=stats.cycles,
            user_work=stats.instructions,
            mem_stall=stats.mem_stall_cycles,
            check_overhead=stats.checks_executed * machine.check_cost,
            trace_record=stats.trace_charges * machine.trace_cost,
            dfsm_detect=stats.detect_cycles,
            prefetch_issue=stats.prefetches_issued * machine.prefetch_issue_cost,
            analysis=stats.charged_cycles,
        )

    @property
    def attributed(self) -> int:
        """Sum over all categories; equals ``total`` when conserved."""
        return sum(getattr(self, name) for name in CATEGORIES)

    @property
    def unattributed(self) -> int:
        """Cycles the categories fail to cover (0 on a healthy run)."""
        return self.total - self.attributed

    @property
    def conserved(self) -> bool:
        """True when every simulated cycle is charged to exactly one category."""
        return self.unattributed == 0

    def share(self, category: str) -> float:
        """Fraction of total cycles charged to ``category``."""
        return getattr(self, category) / self.total if self.total else 0.0

    def rows(self) -> list[tuple[str, int, float]]:
        """(label, cycles, share) per category, report order, nonzero-last-kept."""
        return [
            (label, getattr(self, name), self.share(name))
            for name, label in CATEGORY_LABELS
        ]



#: Raw counter fields tracked per procedure, in :class:`ProcAttrRecorder`
#: row order.  Deliberately the *counters* (not cycles): the per-category
#: cycle split is derived later from the machine's cost model, exactly as
#: :meth:`CycleAttribution.from_run` does for the whole run, and the
#: scheduler-owned clock (which tenancy may advance between slices) can
#: never skew the procedure split.
PROC_COUNTER_FIELDS = (
    "icount", "mem_stall", "nchecks", "trace_chg", "detect_cyc", "pf_issued", "charged",
)


class ProcAttrRecorder:
    """Per-procedure counter deltas, charged at procedure boundaries.

    The dispatch loops (reference and compiled) call :meth:`charge` with the
    *absolute* run counters at every point where control changes procedure —
    CALL before the switch, RET before the pop, and every park/finish — so
    each delta lands on the procedure that was executing while it accrued.
    Between charge points the counters only ever grow inside one procedure,
    which makes the split exact: summing any column over ``rows`` recovers
    the run total.

    PC→procedure mapping piggybacks on ``proc.name``: both the static dual
    versions and dynamically injected copies preserve the original
    procedure's name (see :func:`repro.vulcan.dynamic_edit.optimized_copy`),
    so a procedure's row aggregates over every code version it ran under.
    The paper's Section 3.2 stale-frame caveat applies unchanged: a frame
    still executing a removed copy runs to completion and keeps charging to
    the same name — which is exactly the attribution a reader wants.

    Pickles with the interpreter (plain dict + marks), so checkpointed runs
    resume their attribution mid-flight.
    """

    __slots__ = ("rows", "_marks")

    def __init__(self) -> None:
        #: procedure name -> counter deltas in PROC_COUNTER_FIELDS order
        self.rows: dict[str, list[int]] = {}
        self._marks = [0] * len(PROC_COUNTER_FIELDS)

    def charge(
        self,
        name: str,
        icount: int,
        mem_stall: int,
        nchecks: int,
        trace_chg: int,
        detect_cyc: int,
        pf_issued: int,
        charged: int,
    ) -> None:
        """Charge counter growth since the previous charge point to ``name``."""
        marks = self._marks
        row = self.rows.get(name)
        if row is None:
            row = self.rows[name] = [0] * len(marks)
        row[0] += icount - marks[0]
        row[1] += mem_stall - marks[1]
        row[2] += nchecks - marks[2]
        row[3] += trace_chg - marks[3]
        row[4] += detect_cyc - marks[4]
        row[5] += pf_issued - marks[5]
        row[6] += charged - marks[6]
        marks[0] = icount
        marks[1] = mem_stall
        marks[2] = nchecks
        marks[3] = trace_chg
        marks[4] = detect_cyc
        marks[5] = pf_issued
        marks[6] = charged

    def charge_state(self, state) -> None:
        """Charge from a parked :class:`~repro.interp.interpreter.ExecState`."""
        self.charge(
            state.proc.name,
            state.icount,
            state.mem_stall,
            state.nchecks,
            state.trace_chg,
            state.detect_cyc,
            state.pf_issued,
            state.charged,
        )

    def __getstate__(self) -> dict:
        return {"rows": self.rows, "marks": self._marks}

    def __setstate__(self, state: dict) -> None:
        self.rows = state["rows"]
        self._marks = state["marks"]


@dataclass(frozen=True)
class ProcAttribution:
    """The 7-category cycle split with a procedure dimension.

    ``rows`` maps procedure name -> :class:`CycleAttribution` whose ``total``
    is that procedure's attributed cycles.  :meth:`totals` recovers the
    whole-run split; the oracle invariant
    :func:`repro.oracle.invariants.check_proc_attribution` pins that it
    equals :meth:`CycleAttribution.from_run` category by category.
    """

    rows: tuple[tuple[str, CycleAttribution], ...]

    @classmethod
    def from_recorder(
        cls, recorder: ProcAttrRecorder, machine: "MachineConfig"
    ) -> "ProcAttribution":
        """Derive per-procedure cycle categories from recorded counters."""
        built = []
        for name, row in recorder.rows.items():
            icount, mem_stall, nchecks, trace_chg, detect_cyc, pf_issued, charged = row
            categories = dict(
                user_work=icount,
                mem_stall=mem_stall,
                check_overhead=nchecks * machine.check_cost,
                trace_record=trace_chg * machine.trace_cost,
                dfsm_detect=detect_cyc,
                prefetch_issue=pf_issued * machine.prefetch_issue_cost,
                analysis=charged,
            )
            built.append((name, CycleAttribution(total=sum(categories.values()), **categories)))
        built.sort(key=lambda kv: (-kv[1].total, kv[0]))
        return cls(rows=tuple(built))

    def totals(self) -> dict[str, int]:
        """Column sums over every procedure, keyed by category (plus total)."""
        out = {name: 0 for name in CATEGORIES}
        out["total"] = 0
        for _, att in self.rows:
            out["total"] += att.total
            for name in CATEGORIES:
                out[name] += getattr(att, name)
        return out

    def to_dict(self) -> dict[str, dict[str, int]]:
        """JSON view preserving row order: proc name -> category cycles
        (one mapping, where :class:`~repro.wire.Wire` would write a list
        of pairs)."""
        return {name: att.to_dict() for name, att in self.rows}

    @classmethod
    def from_dict(cls, data: dict) -> "ProcAttribution":
        """Inverse of :meth:`to_dict`; reads ``explain --from`` documents
        leniently, a missing category as 0."""
        return cls(
            rows=tuple(
                (name, CycleAttribution.from_dict(doc)) for name, doc in data.items()
            )
        )
