"""The benchmark's four workloads, cut into cells, and the checks on each cell.

A *cell* is one simulated unit of work: a preset at one measurement level,
one multi-tenant co-run, or the observed run's trace export.  Its ``setup``
(building the workload, instrumenting and wiring it) is timed as set-up; its
``run`` is timed as execution; its :class:`Outcome` carries the simulated
results the benchmark checks.

Workload inputs come from the benchmark seed: every chain-mix preset and the
phase-shift workload get ``seed = preset seed + 1000 * benchmark seed``, so
seed 0 is the repository's canonical workload set.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass, field, replace
from pathlib import Path
from typing import Optional

from repro.engine.levels import finish_workload, prepare_workload
from repro.errors import ReproError
from repro.obs.chunks import load_chunks
from repro.obs.stream import StreamingTraceSink
from repro.oracle.invariants import check_conservation, check_cycle_attribution, run_fingerprint
from repro.telemetry import export
from repro.telemetry.session import TelemetrySession
from repro.telemetry.sinks import ListSink
from repro.tenancy import scheduler
from repro.tenancy.plan import TenantPlan, TenantSpec
from repro.workloads import presets
from repro.workloads.chainmix import build_chainmix
from repro.workloads.phaseshift import PhaseShiftParams, build_phaseshift

FIG11_LEVELS = ("orig", "base", "prof", "hds")
FIG12_LEVELS = ("nopref", "seq", "dyn")
#: One preset of each kind Figure 12 tells apart: the strongest Dyn-pref
#: winner, a Seq-pref victim with many walkers, and the one Seq-pref winner
#: (sequentially allocated streams).  Three, not six, so that rounds stay
#: short enough to repeat (see PASS_SHARE).
PRESETS = ("vpr", "twolf", "parser")
#: the CI smoke mix: a prefetching tenant, a plain one and the thrasher
TENANTS = (("vpr", "dyn"), ("twolf", "orig"), ("phaseshift", "dyn"))
TENANT_QUANTUM = 2048

#: Share of each workload's default pass count one cell runs.  Sized so one
#: round of any workload takes 2.5 to 4 s on an unloaded 2-core x86
#: container, which lets a 20 s run time every cell four to seven times (two
#: to four when the host runs at half speed) and report medians.
PASS_SHARE = {"fig11": 0.1, "fig12": 0.1, "tenancy": 0.2, "observed": 0.1}

#: Levels whose binary the static editor instruments (CHECK instructions).
_INSTRUMENTED = ("base", "prof", "hds", "nopref", "seq", "dyn")
#: Levels that trace references into Sequitur.
_PROFILED = ("prof", "hds", "nopref", "seq", "dyn")


def passes_for(name: str, share: float) -> int:
    """The pass count a cell of workload ``name`` runs at ``share``."""
    default = PhaseShiftParams().passes if name == "phaseshift" else presets.params_for(name).passes
    return max(2, int(default * share))


def build_workload(name: str, passes: int, seed: int):
    """Build preset or phase-shift workload ``name`` for benchmark ``seed``."""
    if name == "phaseshift":
        params = PhaseShiftParams()
        return build_phaseshift(replace(params, seed=params.seed + 1000 * seed), passes=passes)
    params = presets.params_for(name)
    return build_chainmix(replace(params, seed=params.seed + 1000 * seed), passes=passes)


def digest(doc: object) -> str:
    """sha256 of the canonical JSON form of ``doc``."""
    text = json.dumps(doc, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode()).hexdigest()


@dataclass
class Outcome:
    """What one cell produced, reduced to what the benchmark compares."""

    #: exact counters, in a fixed order (the first one that differs is named)
    fields: dict[str, int] = field(default_factory=dict)
    #: sha256 of the whole serialized result
    digest: str = ""
    #: invariant violations found in the result
    problems: list[str] = field(default_factory=list)
    #: simulated instructions executed
    instructions: int = 0
    #: exact per-layer work counts taken from the simulated results
    counts: dict[str, int] = field(default_factory=dict)


def _counts(stats, hierarchy, summary) -> dict[str, int]:
    out = {
        "instructions": stats.instructions,
        "traced_refs": stats.traced_refs,
        "demand_accesses": hierarchy.demand_accesses,
        "l1_accesses": hierarchy.l1.hits + hierarchy.l1.misses,
        "l1_misses": hierarchy.l1.misses,
        "prefetch_issued": hierarchy.prefetch.issued,
        "prefetch_useful": hierarchy.prefetch.useful,
    }
    if summary is not None:
        out["streams"] = sum(c.num_streams for c in summary.cycles)
        out["dfsm_states"] = sum(c.dfsm_states for c in summary.cycles)
        out["procs_patched"] = sum(c.procs_modified for c in summary.cycles)
    return out


def _run_outcome(result) -> Outcome:
    doc = result.to_dict()
    problems = []
    for check in (check_conservation, check_cycle_attribution):
        try:
            check(result)
        except ReproError as exc:
            problems.append(str(exc))
    return Outcome(
        fields=run_fingerprint(result),
        digest=digest(doc),
        problems=problems,
        instructions=result.stats.instructions,
        counts=_counts(result.stats, result.hierarchy, result.summary),
    )


# ------------------------------------------------------------------ cells


class RunCell:
    """One preset at one level, run alone on the paper's machine."""

    def __init__(self, name: str, preset: str, level: str, passes: int, seed: int, fast: bool):
        self.name = name
        self.preset = preset
        self.level = level
        self.passes = passes
        self.seed = seed
        self.fast = fast
        self.prepared = None
        self.result = None

    def session(self) -> Optional[TelemetrySession]:
        return None

    def setup(self) -> None:
        workload = build_workload(self.preset, self.passes, self.seed)
        self.prepared = prepare_workload(workload, self.level, telemetry=self.session())

    def run(self) -> None:
        prepared = self.prepared
        stats = prepared.interp.run(prepared.args, fast=self.fast)
        self.result = finish_workload(prepared, stats)

    def outcome(self) -> Outcome:
        return _run_outcome(self.result)


class TenancyCell:
    """The three-tenant co-run on one shared hierarchy (private L1s)."""

    name = "tenancy/mix"

    def __init__(self, share: float, seed: int, fast: bool):
        self.seed = seed
        self.fast = fast
        self.passes = {w: passes_for(w, share) for w, _ in TENANTS}
        self.plan = TenantPlan(
            tenants=tuple(TenantSpec(w, level, self.passes[w]) for w, level in TENANTS),
            quantum=TENANT_QUANTUM,
            sharing="private-l1",
        )
        self.result = None

    def setup(self) -> None:
        pass

    def _build(self, name: str, passes=None):
        return build_workload(name, passes, self.seed)

    def run(self) -> None:
        # The scheduler builds its tenants by name; route that through the
        # seeded builder for the duration of the run.
        saved = scheduler.build_named
        scheduler.build_named = self._build
        try:
            self.result = scheduler.run_tenant_plan(self.plan, fast=self.fast)
        finally:
            scheduler.build_named = saved

    def outcome(self) -> Outcome:
        result = self.result
        doc = result.to_dict()
        fields = {"global_cycles": result.global_cycles}
        problems = []
        counts: dict[str, int] = {}
        for tenant in result.tenants:
            try:
                check_conservation(tenant)
            except ReproError as exc:
                problems.append(str(exc))
            for key, value in run_fingerprint(tenant).items():
                fields[f"t{tenant.tenant_id}.{key}"] = value
            for key, value in _counts(tenant.stats, tenant.hierarchy, tenant.summary).items():
                counts[key] = counts.get(key, 0) + value
            counts["slices"] = counts.get("slices", 0) + tenant.slices
        return Outcome(
            fields=fields,
            digest=digest(doc),
            problems=problems,
            instructions=counts["instructions"],
            counts=counts,
        )


class ObservedRun:
    """Shared state of one round of the observed workload.

    The three runs stream into one chunk directory, as ``repro-bench trace
    --stream`` does, and keep their events in memory for the Chrome export.
    """

    def __init__(self, root: Path):
        self.root = root
        self.chunks = root / "chunks"
        self.trace = root / "trace.json"
        self.stream = StreamingTraceSink(self.chunks)
        self.summaries: list[dict] = []
        self.runs: list[tuple[str, list]] = []

    def handle(self, event) -> None:
        pass

    def note_run_summary(self, doc: dict) -> None:
        self.summaries.append(doc)


class ObservedCell(RunCell):
    """A dyn run with span tracing, the prefetch ledger, per-procedure
    attribution and streamed export on (the ``explain`` + ``trace --stream``
    session, default sampling)."""

    def __init__(self, observed: ObservedRun, preset: str, passes: int, seed: int, fast: bool):
        super().__init__(f"observed/{preset}/dyn", preset, "dyn", passes, seed, fast)
        self.observed = observed
        self.events = ListSink()
        self.telemetry = None

    def session(self) -> TelemetrySession:
        self.telemetry = TelemetrySession(
            sinks=[self.events, self.observed, self.observed.stream],
            tracing=True,
            track_prefetches=True,
            proc_attribution=True,
        )
        return self.telemetry

    def run(self) -> None:
        super().run()
        self.observed.runs.append((f"{self.preset}/dyn", self.events.events))

    def outcome(self) -> Outcome:
        out = _run_outcome(self.result)
        out.problems += [
            f"ledger: {m}" for m in self.telemetry.ledger.reconcile(self.result.hierarchy.prefetch)
        ]
        return out


class ExportCell:
    """Seal the chunk directory and write the Chrome trace of the round."""

    name = "observed/export"
    passes = 0

    def __init__(self, observed: ObservedRun):
        self.observed = observed
        self.entries = 0

    def setup(self) -> None:
        pass

    def run(self) -> None:
        observed = self.observed
        observed.stream.close()
        self.entries = export.write_chrome_trace(
            observed.runs, observed.trace, summaries=observed.summaries
        )

    def outcome(self) -> Outcome:
        observed = self.observed
        problems = []
        load = load_chunks(observed.chunks)
        if not load.complete:
            problems.append(f"chunk directory incomplete: {load.notes}")
        try:
            document = export.load_chrome_trace(observed.trace)
        except (ReproError, ValueError) as exc:
            problems.append(f"chrome trace does not load: {exc}")
        else:
            if len(document["traceEvents"]) != self.entries:
                problems.append(
                    f"chrome trace has {len(document['traceEvents'])} entries, wrote {self.entries}"
                )
        fields = {"runs": len(observed.runs), "entries": self.entries, "records": len(load.records)}
        return Outcome(fields=fields, digest=digest(fields), problems=problems)


def cells_for(workload: str, seed: int, scale: float, fast: bool, tmp: Path) -> list:
    """The cells of one round of ``workload``, in execution order."""
    share = PASS_SHARE[workload] * scale
    if workload in ("fig11", "fig12"):
        levels = FIG11_LEVELS if workload == "fig11" else FIG12_LEVELS
        return [
            RunCell(f"{workload}/{p}/{lvl}", p, lvl, passes_for(p, share), seed, fast)
            for p in PRESETS
            for lvl in levels
        ]
    if workload == "tenancy":
        return [TenancyCell(share, seed, fast)]
    if workload == "observed":
        observed = ObservedRun(tmp)
        cells: list = [
            ObservedCell(observed, p, passes_for(p, share), seed, fast) for p in PRESETS
        ]
        return cells + [ExportCell(observed)]
    raise ValueError(f"unknown workload {workload!r}")


def cross_check(cells: list, outcomes: dict[str, Outcome]) -> list[tuple[str, str]]:
    """Relations that hold between the cells of one preset on any seed.

    Every level runs the same program on the same inputs: the return value
    and the number of memory references never change, the instrumented
    levels execute the same instructions, and the profiled levels trace the
    same references.  Returns ``(cell, problem)`` pairs.
    """
    problems = []
    first: dict[tuple[str, str], tuple[str, int]] = {}
    for cell in cells:
        if not isinstance(cell, RunCell) or cell.name not in outcomes:
            continue
        fields = outcomes[cell.name].fields
        keys = ["return_value", "memory_refs"]
        if cell.level in _INSTRUMENTED:
            keys.append("instructions")
        if cell.level in _PROFILED:
            keys.append("traced_refs")
        for key in keys:
            seen = first.setdefault((cell.preset, key), (cell.name, fields[key]))
            if seen[1] != fields[key]:
                problems.append(
                    (cell.name, f"{key} {fields[key]} differs from {seen[0]} ({seen[1]})")
                )
    return problems
