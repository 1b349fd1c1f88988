"""Regeneration of every figure and table in the paper's evaluation.

Each function reproduces one artifact (see DESIGN.md's experiment index):

========================  ====================================================
:func:`figure4_grammar`   Figure 4 — Sequitur grammar for ``abaabcabcabcabc``
:func:`table1_rows`       Table 1 / Figure 6 — hot-data-stream analysis
                          worked example
:func:`figure8_dfsm`      Figure 8 — prefix-match DFSM for ``abacadae`` and
                          ``bbghij``
:func:`figure11_rows`     Figure 11 — profiling/analysis overhead bars
:func:`figure12_rows`     Figure 12 — No-pref / Seq-pref / Dyn-pref impact
:func:`table2_rows`       Table 2 — per-cycle characterization
:func:`ablation_headlen`  Section 4.3 prose — prefix-match length 1/2/3
:func:`ablation_hwpref`   Section 4.3/5.1 prose — stride & Markov baselines
:func:`ablation_watchdog` Extension — prefetch watchdog vs. unguarded dyn on
                          an adversarial phase-shift workload
========================  ====================================================

Every function that renders workload runs reads them from a
:class:`ResultCache`, which sits on the experiment engine
(:mod:`repro.engine`): every execution is a job (a
:class:`~repro.engine.spec.RunSpec` or a tenancy co-run), memoized by its
fingerprint, replayed from the content-addressed
:class:`~repro.engine.cache.ResultStore` when one is attached, and batched
through :func:`~repro.engine.executor.execute_plan` (``jobs > 1`` fans the
simulations out over a process pool) by :meth:`ResultCache.warm`.  The
``*_jobs`` functions name the jobs an artifact reads, so a caller can warm a
whole command as one plan before rendering; the ``Table`` constants are the
artifacts' column declarations.
"""

from __future__ import annotations

from dataclasses import replace
from typing import Optional, Sequence

from repro.analysis.hotstreams import AnalysisConfig, analyze_grammar
from repro.analysis.stream import HotDataStream
from repro.bench.reporting import Ratio, Table
from repro.core.config import OptimizerConfig
from repro.dfsm.build import build_dfsm
from repro.dfsm.machine import PrefixDFSM
from repro.engine.cache import ResultStore
from repro.engine.executor import execute_plan, run_spec
from repro.engine.result import RunResult
from repro.engine.spec import Job, RunPlan, RunSpec
from repro.machine.config import CacheGeometry, MachineConfig, PAPER_MACHINE
from repro.resilience import FaultPlan, WatchdogConfig
from repro.sequitur.sequitur import Sequitur
from repro.telemetry.session import TelemetryRecorder
from repro.workloads import presets
from repro.workloads.phaseshift import PhaseShiftParams

#: The levels Figures 11 and 12 and Table 2 read, in ladder order.
FIGURE_LEVELS = ("orig", "base", "prof", "hds", "nopref", "seq", "dyn")

#: The paper's worked-example string (Figure 4/6, Table 1).
EXAMPLE_STRING = "abaabcabcabcabc"
#: The paper's example streams for the DFSM figure (Figure 8).
EXAMPLE_STREAMS = ("abacadae", "bbghij")


# --------------------------------------------------------------- small repros


def example_grammar() -> tuple[Sequitur, dict[int, str]]:
    """Sequitur grammar for the paper's example string, plus terminal names."""
    alphabet = sorted(set(EXAMPLE_STRING))
    encode = {ch: i for i, ch in enumerate(alphabet)}
    seq = Sequitur()
    seq.extend(encode[ch] for ch in EXAMPLE_STRING)
    return seq, {i: ch for ch, i in encode.items()}


def figure4_grammar() -> str:
    """The Figure 4 grammar as text (expected: S -> A a B B etc.)."""
    seq, names = example_grammar()
    return seq.to_text(names)


def table1_rows() -> list[dict[str, object]]:
    """Table 1's computed values, one dict per non-terminal.

    Uses the example's parameters: H = 8, minLen = 2, maxLen = 7.
    """
    seq, names = example_grammar()
    config = AnalysisConfig(heat_threshold=8, min_length=2, max_length=7)
    facts = analyze_grammar(seq, config)
    rows = []
    for fact in sorted(facts.values(), key=lambda f: f.index):
        word = "".join(names[t] for t in seq.expand(seq.rules[fact.rule_id]))
        rows.append(
            {
                "rule": "S" if fact.rule_id == seq.start.id else f"R{fact.rule_id}",
                "word": word,
                "length": fact.length,
                "index": fact.index,
                "uses": fact.uses,
                "coldUses": fact.cold_uses,
                "heat": fact.heat,
                "hot": fact.hot,
            }
        )
    return rows


def figure8_dfsm(head_len: int = 3) -> PrefixDFSM:
    """The joint prefix-match DFSM for the paper's two example streams."""
    alphabet = sorted({ch for s in EXAMPLE_STREAMS for ch in s})
    encode = {ch: i for i, ch in enumerate(alphabet)}
    streams = [
        HotDataStream(tuple(encode[ch] for ch in text), heat=100 - 10 * i, rule_id=i)
        for i, text in enumerate(EXAMPLE_STREAMS)
    ]
    return build_dfsm(streams, head_len=head_len)


# ------------------------------------------------------------- workload runs


class ResultCache:
    """Memoizes job executions by job fingerprint.

    A thin session-scoped layer over the experiment engine: a job is
    replayed from the attached :class:`~repro.engine.cache.ResultStore` when
    its fingerprint is already on disk.  :meth:`warm` resolves a batch of
    jobs up front as one plan — across a process pool when ``jobs > 1`` —
    so a command can declare all of its jobs before rendering row by row.
    :meth:`get` names a run of the figures' grid by ``(workload, level)``.

    When a :class:`~repro.telemetry.session.TelemetryRecorder` is attached,
    every run executes live and in-process (events cannot be replayed from
    the store nor shipped across a pool boundary), streams its events into
    the recorder's shared chunk log and contributes a ``workload/level``
    metrics snapshot.
    """

    def __init__(
        self,
        opt: Optional[OptimizerConfig] = None,
        passes_scale: float = 1.0,
        recorder: Optional[TelemetryRecorder] = None,
        store: Optional[ResultStore] = None,
        jobs: int = 1,
        durability=None,
    ) -> None:
        self.opt = opt if opt is not None else OptimizerConfig()
        self.passes_scale = passes_scale
        self.recorder = recorder
        self.store = store
        self.jobs = max(1, jobs)
        #: Optional :class:`~repro.durability.supervisor.DurabilityPolicy`:
        #: batches route through the supervised executor (stored results +
        #: checkpoints + retries), byte-identical to the plain path.
        self.durability = durability
        self._results: dict[str, object] = {}

    def passes_for(self, name: str) -> Optional[int]:
        if self.passes_scale == 1.0:
            return None
        if name == "phaseshift":
            return max(2, int(PhaseShiftParams().passes * self.passes_scale))
        return max(2, int(presets.params_for(name).passes * self.passes_scale))

    def spec_for(self, name: str, level: str) -> RunSpec:
        """The engine spec this cache would execute for ``(name, level)``."""
        return RunSpec(
            workload=name,
            level=level,
            passes=self.passes_for(name),
            machine=PAPER_MACHINE,
            opt=self.opt,
        )

    @property
    def _recording(self) -> bool:
        return self.recorder is not None and self.recorder.enabled

    def warm(self, jobs: Sequence[Job]) -> None:
        """Resolve a batch of jobs as one plan before rendering.

        The plan holds each fingerprint once and skips memoized jobs.  No-op
        under a telemetry recorder: those runs stay live and serial, in the
        order the render asks for them.  Otherwise cache hits replay
        instantly and the misses simulate, in parallel when ``jobs > 1``.
        """
        if self._recording:
            return
        todo: dict[str, Job] = {}
        for job in jobs:
            key = job.fingerprint()
            if key not in self._results:
                todo.setdefault(key, job)
        if todo:
            plan = RunPlan.of(*todo.values())
            results = execute_plan(
                plan, jobs=self.jobs, store=self.store, durability=self.durability
            )
            self._results.update(zip(todo, results))

    def result(self, job: Job):
        """``job``'s result: memoized, else replayed or simulated (live,
        into the recorder, when one is attached)."""
        key = job.fingerprint()
        if key not in self._results:
            if self._recording:
                session = self.recorder.session_for(job.workload, job.level)
                self._results[key] = run_spec(job, telemetry=session)
                self.recorder.record(job.workload, job.level, session)
            else:
                self._results[key] = run_spec(job, store=self.store)
        return self._results[key]

    def get(self, name: str, level: str) -> RunResult:
        return self.result(self.spec_for(name, level))


def ladder_jobs(cache: ResultCache, names: Sequence[str], levels: Sequence[str]) -> list[RunSpec]:
    """The runs of ``levels`` for each of ``names``, workload by workload."""
    return [cache.spec_for(n, level) for n in names for level in levels]


FIGURE11 = Table(
    "Figure 11: overhead of online profiling and analysis",
    (("benchmark", "benchmark"), ("Base %", "base_pct"), ("Prof %", "prof_pct"),
     ("Hds %", "hds_pct")),
)
FIGURE12 = Table(
    "Figure 12: performance impact of dynamic prefetching (negative = speedup)",
    (("benchmark", "benchmark"), ("No-pref %", "nopref_pct"),
     ("Seq-pref %", "seqpref_pct"), ("Dyn-pref %", "dynpref_pct")),
)
FIGURE12_QUALITY = Table(
    "Figure 12 companion: prefetch quality per level (accuracy / timeliness / pollution)",
    (("benchmark", "benchmark"), ("level", "level"), ("issued", "issued"),
     ("accuracy", "accuracy"), ("timeliness", "timeliness"), ("pollution", "pollution")),
)
TABLE1 = Table(
    "Table 1: hot data stream analysis worked example (H=8, len 2..7)",
    tuple((key, key) for key in
          ("rule", "word", "length", "index", "uses", "coldUses", "heat", "hot")),
)
TABLE2 = Table(
    "Table 2: detailed dynamic prefetching characterization (per-cycle averages)",
    (("benchmark", "benchmark"), ("#opt cycles", "opt_cycles"),
     ("#traced refs", "traced_refs_per_cycle"), ("#hds", "hds_per_cycle"),
     ("DFSM states", "dfsm_states"), ("DFSM trans", "dfsm_transitions"),
     ("checks", "dfsm_checks"), ("#procs", "procs_modified")),
)
HEADLEN = Table(
    "Ablation (Section 4.3): prefix-match length, {name}",
    (("headLen", "head_len"), ("Dyn-pref %", "dynpref_pct"),
     ("accuracy", "prefetch_accuracy"), ("issued", "prefetches_issued")),
)
HWPREF = Table(
    "Ablation (Section 5.1): hardware prefetcher baselines, {name}",
    (("scheme", "scheme"), ("overhead %", "overhead_pct"),
     ("accuracy", "prefetch_accuracy"), ("useful", "useful"), ("wasted", "wasted")),
)
WATCHDOG = Table(
    "Ablation (extension): prefetch watchdog under phase shifts",
    (("variant", "variant"), ("cycles", "cycles"), ("vs no-pref %", "vs_nopref_pct"),
     ("#opt", "opt_cycles"), ("deopts", "deopts"), ("wakes", "early_wakes"),
     ("errors", "errors"), ("faults", "faults"), ("issued", "issued"),
     ("useful", "useful"), ("wasted", "wasted")),
)


def figure11_rows(cache: ResultCache, names: Optional[Sequence[str]] = None) -> list[dict]:
    """Figure 11: Base / Prof / Hds overhead (percent) per benchmark."""
    rows = []
    for name in names or presets.names():
        orig = cache.get(name, "orig")
        rows.append(
            {
                "benchmark": name,
                "base_pct": cache.get(name, "base").overhead_vs(orig),
                "prof_pct": cache.get(name, "prof").overhead_vs(orig),
                "hds_pct": cache.get(name, "hds").overhead_vs(orig),
            }
        )
    return rows


def figure12_rows(cache: ResultCache, names: Optional[Sequence[str]] = None) -> list[dict]:
    """Figure 12: No-pref / Seq-pref / Dyn-pref overhead (percent)."""
    rows = []
    for name in names or presets.names():
        orig = cache.get(name, "orig")
        rows.append(
            {
                "benchmark": name,
                "nopref_pct": cache.get(name, "nopref").overhead_vs(orig),
                "seqpref_pct": cache.get(name, "seq").overhead_vs(orig),
                "dynpref_pct": cache.get(name, "dyn").overhead_vs(orig),
            }
        )
    return rows


def figure12_quality_rows(
    cache: ResultCache,
    names: Optional[Sequence[str]] = None,
    levels: Sequence[str] = ("nopref", "seq", "dyn"),
) -> list[dict]:
    """Figure 12 companion: prefetch accuracy/timeliness/pollution per level.

    Values come from each run's
    :class:`~repro.machine.hierarchy.PrefetchStats`, so they are exactly the
    paper's quality axes: accuracy = used / issued (non-redundant),
    timeliness = in-time / used, pollution = evicted-unused / issued
    (non-redundant).  Each is a :class:`~repro.bench.reporting.Ratio`.
    """
    rows = []
    for name in names or presets.names():
        for level in levels:
            prefetch = cache.get(name, level).hierarchy.prefetch
            rows.append(
                {
                    "benchmark": name,
                    "level": level,
                    "issued": prefetch.issued,
                    "accuracy": Ratio(prefetch.accuracy),
                    "timeliness": Ratio(prefetch.timeliness),
                    "pollution": Ratio(prefetch.pollution),
                }
            )
    return rows


def table2_rows(cache: ResultCache, names: Optional[Sequence[str]] = None) -> list[dict]:
    """Table 2: per-optimization-cycle characterization of the dyn runs."""
    rows = []
    for name in names or presets.names():
        summary = cache.get(name, "dyn").summary
        assert summary is not None
        rows.append(
            {
                "benchmark": name,
                "opt_cycles": summary.num_cycles,
                "traced_refs_per_cycle": round(summary.mean_traced_refs),
                "hds_per_cycle": round(summary.mean_streams, 1),
                "dfsm_states": round(summary.mean_dfsm_states),
                "dfsm_transitions": round(summary.mean_dfsm_transitions),
                "dfsm_checks": round(summary.mean_injected_checks),
                "procs_modified": round(summary.mean_procs_modified, 1),
            }
        )
    return rows


def headlen_jobs(
    cache: ResultCache, name: str, head_lens: Sequence[int] = (1, 2, 3)
) -> list[RunSpec]:
    """``name``'s ``orig`` run, then one dyn run per prefix length."""
    passes = cache.passes_for(name)
    return [
        RunSpec(name, "orig", passes=passes),
        *(
            RunSpec(name, "dyn", passes=passes, opt=OptimizerConfig(head_len=head_len))
            for head_len in head_lens
        ),
    ]


def ablation_headlen(
    cache: ResultCache, name: str, head_lens: Sequence[int] = (1, 2, 3)
) -> list[dict]:
    """Section 4.3: vary the matched prefix length before prefetching.

    The paper found headLen=2 best: 1 is cheaper but less accurate, 3 adds
    matching overhead without accuracy gains.
    """
    orig, *variants = map(cache.result, headlen_jobs(cache, name, head_lens))
    rows = []
    for head_len, result in zip(head_lens, variants):
        prefetch = result.hierarchy.prefetch
        rows.append(
            {
                "head_len": head_len,
                "dynpref_pct": result.overhead_vs(orig),
                "prefetch_accuracy": round(prefetch.accuracy, 3),
                "prefetches_issued": prefetch.issued,
            }
        )
    return rows


#: Machine for the watchdog ablation.  A wasted prefetch is only *classified*
#: when its line is evicted, so the L2 is small enough that the workload's
#: cold scrub evicts stale prefetches within a poll window, and prefetch
#: issue is expensive enough that mostly-wrong streams carry a real cost.
ABLATION_WATCHDOG_MACHINE = MachineConfig(
    l1=CacheGeometry(4 * 1024, 4),
    l2=CacheGeometry(32 * 1024, 8),
    l2_latency=12,
    memory_latency=100,
    prefetch_issue_cost=8,
)
#: Short profiling, long hibernation: installed streams run long enough to
#: go stale when the workload rotates its hot tails mid-hibernation.
ABLATION_WATCHDOG_OPT = OptimizerConfig(n_awake=20, n_hibernate=300)
#: The winning watchdog policy on phase-shift behaviour: roll back condemned
#: streams individually but do *not* re-profile when the last one dies —
#: phases rotate faster than a fresh optimization cycle pays for itself.
ABLATION_WATCHDOG_CONFIG = WatchdogConfig(check_every=4, min_samples=16, wake_on_empty=False)


def watchdog_jobs(cache: ResultCache, fault_seed: Optional[int] = None) -> dict[str, RunSpec]:
    """The watchdog ablation's phaseshift runs by variant label, baseline
    first; ``fault_seed`` adds the fault-injected variant."""
    wd_opt = replace(ABLATION_WATCHDOG_OPT, watchdog=ABLATION_WATCHDOG_CONFIG)
    variants = {
        "nopref": ("nopref", ABLATION_WATCHDOG_OPT),
        "dyn": ("dyn", ABLATION_WATCHDOG_OPT),
        "dyn+watchdog": ("dyn", wd_opt),
    }
    if fault_seed is not None:
        variants["dyn+watchdog+faults"] = ("dyn", replace(wd_opt, faults=FaultPlan(seed=fault_seed)))
    passes = cache.passes_for("phaseshift")
    return {
        label: RunSpec("phaseshift", level, passes=passes, machine=ABLATION_WATCHDOG_MACHINE, opt=opt)
        for label, (level, opt) in variants.items()
    }


def ablation_watchdog(cache: ResultCache, fault_seed: Optional[int] = None) -> list[dict]:
    """Extension: the prefetch watchdog on an adversarial phase-shift workload.

    The phaseshift workload keeps each hot stream's *head* phase-invariant
    while rotating the tail it predicts through three disjoint working sets,
    so every installed stream goes stale mid-hibernation.  Unguarded dyn
    keeps issuing the stale prefetches; the watchdog's scoreboard condemns
    and rolls back each stream as its accuracy collapses, landing within a
    few percent of the no-prefetch baseline.

    With ``fault_seed`` set, a fourth row runs the watchdog variant under
    deterministic fault injection (:mod:`repro.resilience.faults`) — the run
    must still complete, demonstrating graceful degradation.
    """
    jobs = watchdog_jobs(cache, fault_seed)
    baseline = cache.result(jobs["nopref"])
    rows: list[dict] = []
    for label, job in jobs.items():
        result = cache.result(job)
        summary = result.summary
        assert summary is not None
        prefetch = result.hierarchy.prefetch
        rows.append(
            {
                "variant": label,
                "cycles": result.cycles,
                "vs_nopref_pct": round(result.overhead_vs(baseline), 2),
                "opt_cycles": summary.num_cycles,
                "deopts": summary.stream_deopts,
                "early_wakes": summary.early_wakes,
                "errors": summary.optimizer_errors,
                "faults": summary.faults_injected,
                "issued": prefetch.issued,
                "useful": prefetch.useful,
                "wasted": prefetch.wasted,
                # Every rollback emits one StreamDeoptimized event alongside
                # the summary counter; the summary survives cache replay.
                "deopt_events": summary.stream_deopts,
            }
        )
    return rows


#: The hardware prefetcher baselines, then the software scheme they face.
HWPREF_SCHEMES = ("stride", "markov", "dyn")


def hwpref_jobs(cache: ResultCache, name: str) -> list[RunSpec]:
    """``name``'s ``orig`` run, then one run per scheme."""
    passes = cache.passes_for(name)
    return [RunSpec(name, level, passes=passes) for level in ("orig", *HWPREF_SCHEMES)]


def ablation_hwpref(cache: ResultCache, name: str) -> list[dict]:
    """Section 4.3/5.1: hardware stride and Markov prefetchers vs. dyn.

    The hardware baselines are cost-free in the model (no instruction
    overhead), yet stride prefetching cannot cover the pointer-chasing hot
    streams ("many will not be successfully prefetched using a simple
    stride-based prefetching scheme").
    """
    orig, *variants = map(cache.result, hwpref_jobs(cache, name))
    rows = []
    for level, result in zip(HWPREF_SCHEMES, variants):
        prefetch = result.hierarchy.prefetch
        rows.append(
            {
                "scheme": level,
                "overhead_pct": result.overhead_vs(orig),
                "prefetch_accuracy": round(prefetch.accuracy, 3),
                "useful": prefetch.useful,
                "wasted": prefetch.wasted,
            }
        )
    return rows
