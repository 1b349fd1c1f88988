"""The ``repro-bench verify`` driver: run every oracle section, one report.

Sections (all seeded, all deterministic for a given ``--seed``):

``hierarchy``   randomized differential runs, MemoryHierarchy vs RefHierarchy,
                per-op stalls and full counter fingerprints, as the one
                tenant (lane 0) and as tenant 1 of two in both sharing modes;
                the same op sequences as straight-line programs on the
                compiled kernel vs the reference dispatch loop, whose inline
                memory paths they explore.
``sequitur``    randomized traces through production Sequitur, its own
                ``verify_invariants`` and the independent brute-force checker;
                short-motif traces plus long periodic ones per run.
``streams``     randomized traces: fast grammar analysis vs the O(n²)
                enumerator (conservativeness + membership), and the two
                brute-force enumerators against each other.
``invariants``  metamorphic whole-run checks on a small workload: counter
                conservation across levels, architectural-state preservation,
                telemetry observer effect, inert fault plans, address
                relabeling, cache-replay identity, checkpoint-resume
                identity.
``fastpath``    compiled-kernel identity: every golden (workload, level)
                cell executed by the reference dispatch loop and by
                ``repro.fastpath``, bit-compared (store bypassed, so cache
                hits cannot make the comparison vacuous), plus a contended
                two-tenant co-run in both sharing modes.
``obs``         the event log: every golden cell run with the chunk-log
                writer attached — zero observer effect, the Chrome trace
                rendered from the loaded log byte-identical to the render
                of the live events, a non-empty Perfetto render — and
                per-procedure attribution summing exactly to the
                7-category totals, reference vs fastpath rows identical.
``golden``      the frozen corpus under ``tests/golden/`` (skippable).

Differential failures are delta-debugged to 1-minimal reproducers before
reporting.  The driver never stops at the first failure — the report lists
every section's verdict so one broken invariant doesn't hide another.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable, Optional, Union

from repro.analysis.hotstreams import AnalysisConfig
from repro.bench.runner import run_workload
from repro.errors import OracleError
from repro.machine.config import CacheGeometry, MachineConfig
from repro.oracle import fuzz, golden
from repro.oracle.invariants import (
    check_architectural_state,
    check_cache_replay_identity,
    check_checkpoint_resume_identity,
    check_conservation,
    check_cycle_attribution,
    check_disabled_resilience_identical,
    check_fastpath_identity,
    check_observer_effect,
    check_proc_attribution,
    check_streaming_trace_identity,
    check_relabel_invariance,
    check_tenancy_fastpath_identity,
    check_tenancy_pollution_reconciliation,
    check_tenancy_single_equivalence,
    check_tracing_observer_effect,
)
from repro.workloads import presets

#: Small two-level machine for hierarchy fuzzing (mirrors the test fixtures).
STRESS_MACHINE = MachineConfig(
    l1=CacheGeometry(512, 2),
    l2=CacheGeometry(4096, 4),
)

#: Analysis settings for the stream differential: permissive enough that
#: random motif traces actually produce streams to cross-check.
FUZZ_ANALYSIS = AnalysisConfig(heat_ratio=0.05, min_length=2, max_length=20, min_unique=0)

#: Workload used by the metamorphic section (smallest preset, one pass).
_INVARIANT_WORKLOAD = "vortex"


@dataclass
class SectionResult:
    """Outcome of one verify section."""

    name: str
    cases: int = 0
    failures: list[str] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return not self.failures

    def run_case(self, check: Callable[[], None]) -> None:
        self.cases += 1
        try:
            check()
        except OracleError as err:
            self.failures.append(str(err))


@dataclass
class VerifyReport:
    """Aggregate over all sections; ``ok`` is the CLI exit condition."""

    seed: int
    runs: int
    sections: list[SectionResult] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return all(section.ok for section in self.sections)

    def format(self) -> str:
        lines = [f"oracle verification (seed={self.seed}, runs={self.runs})"]
        for section in self.sections:
            verdict = "ok" if section.ok else f"FAIL ({len(section.failures)})"
            lines.append(f"  {section.name:<11} {section.cases:>4} cases  {verdict}")
            for failure in section.failures:
                first, *rest = failure.splitlines()
                lines.append(f"    - {first}")
                lines.extend(f"      {line}" for line in rest)
        # The verdict line echoes the seed/run count: failures are usually
        # reported by pasting this one line, and it must be enough to
        # reproduce the exact randomized sections that failed.
        verdict = "PASSED" if self.ok else "FAILED"
        lines.append(f"VERIFY {verdict} (seed={self.seed}, runs={self.runs})")
        return "\n".join(lines)


def _verify_hierarchy(rng: random.Random, runs: int) -> SectionResult:
    section = SectionResult("hierarchy")
    for _ in range(runs):
        ops = fuzz.gen_hierarchy_ops(rng, 300, STRESS_MACHINE)
        for tenant in (0, 1):
            for name, diff in (("hierarchy", fuzz.diff_hierarchy), ("kernel", fuzz.diff_kernel)):
                section.run_case(
                    lambda o=ops, t=tenant, d=diff, n=name: fuzz.check_with_shrinking(
                        o,
                        lambda seq: d(STRESS_MACHINE, seq, t),
                        f"{n} differential (tenant {t})",
                    )
                )
    return section


def _verify_sequitur(rng: random.Random, runs: int) -> SectionResult:
    section = SectionResult("sequitur")
    for _ in range(runs):
        traces = (
            fuzz.gen_trace(rng, rng.randint(20, 300), alphabet=rng.randint(2, 10)),
            # Rule bodies tens of symbols long: the in-place lengthening path.
            fuzz.gen_periodic_trace(rng, rng.randint(100, 600), alphabet=rng.randint(3, 32)),
        )
        for trace in traces:
            section.run_case(
                lambda t=trace: fuzz.check_with_shrinking(
                    [("tok", s) for s in t],
                    lambda seq: fuzz.diff_sequitur([s for _, s in seq]),
                    "sequitur differential",
                )
            )
    return section


def _verify_streams(rng: random.Random, runs: int) -> SectionResult:
    section = SectionResult("streams")
    for _ in range(runs):
        trace = fuzz.gen_trace(rng, rng.randint(20, 120), alphabet=rng.randint(2, 8))
        section.run_case(
            lambda t=trace: fuzz.check_with_shrinking(
                [("tok", s) for s in t],
                lambda seq: fuzz.diff_streams([s for _, s in seq], FUZZ_ANALYSIS),
                "stream differential",
            )
        )
    return section


def _verify_invariants(rng: random.Random, runs: int) -> SectionResult:
    section = SectionResult("invariants")

    def factory():
        return presets.build(_INVARIANT_WORKLOAD, passes=1)

    def conservation_and_attribution(level: str) -> None:
        # One execution feeds both checks: total-cycle conservation and the
        # exact per-category attribution (which must sum back to that total).
        result = run_workload(factory(), level)
        check_conservation(result)
        check_cycle_attribution(result)

    for level in ("orig", "base", "prof", "hds", "seq", "dyn"):
        section.run_case(lambda lv=level: conservation_and_attribution(lv))
    section.run_case(lambda: check_architectural_state(factory))
    section.run_case(lambda: check_observer_effect(factory))
    section.run_case(lambda: check_tracing_observer_effect(factory))
    section.run_case(lambda: check_disabled_resilience_identical(factory))
    section.run_case(lambda: check_cache_replay_identity())
    section.run_case(lambda: check_checkpoint_resume_identity())
    relabel_rounds = max(1, min(runs, 5))
    for _ in range(relabel_rounds):
        ops = fuzz.gen_hierarchy_ops(rng, 200, STRESS_MACHINE)
        section.run_case(lambda o=ops: check_relabel_invariance(STRESS_MACHINE, o))
    return section


def _verify_tenancy() -> SectionResult:
    section = SectionResult("tenancy")
    section.run_case(lambda: check_tenancy_single_equivalence())
    section.run_case(lambda: check_tenancy_pollution_reconciliation())
    return section


def _verify_fastpath() -> SectionResult:
    """Reference vs compiled kernel over the golden grid (workloads x orig/dyn)
    and over a two-tenant co-run whose tenants evict each other's lines.

    Both legs execute fresh builds directly — never through the result store —
    so a warm cache cannot make the comparison vacuous.
    """
    from repro.engine.spec import RunSpec

    section = SectionResult("fastpath")
    for golden_run in golden.GOLDEN_RUNS:
        spec = RunSpec(golden_run.workload, golden_run.level, passes=1)
        section.run_case(lambda s=spec: check_fastpath_identity(s))
    section.run_case(check_tenancy_fastpath_identity)
    return section


def _verify_obs() -> SectionResult:
    """Chunk-log render identity + per-procedure attribution, golden grid.

    Every golden (workload, level) cell runs with the chunk-log writer
    attached; the Chrome render of the loaded log is byte-compared against
    the render of the live events (and the run against a plain one, zero
    observer effect), then re-runs with per-procedure recording, span
    tracing and the prefetch ledger through both execution engines to hold
    the by-proc split to the category totals and the two kernels' event and
    ledger records to each other.
    All legs execute fresh builds directly, never through the result store.
    """
    from repro.engine.spec import RunSpec

    section = SectionResult("obs")
    for golden_run in golden.GOLDEN_RUNS:
        spec = RunSpec(golden_run.workload, golden_run.level, passes=1)
        section.run_case(lambda s=spec: check_streaming_trace_identity(s))
        section.run_case(lambda s=spec: check_proc_attribution(s))
    return section


def _verify_golden(
    golden_dir: Optional[Union[str, Path]],
    store=None,
    jobs: int = 1,
    durability=None,
) -> SectionResult:
    section = SectionResult("golden")
    section.cases = len(golden.GOLDEN_RUNS)
    section.failures = golden.verify_corpus(
        golden_dir, store=store, jobs=jobs, durability=durability
    )
    return section


def run_verify(
    seed: int = 0,
    runs: int = 25,
    golden_dir: Optional[Union[str, Path]] = None,
    include_golden: bool = True,
    progress: Optional[Callable[[str], None]] = None,
    store=None,
    jobs: int = 1,
    durability=None,
) -> VerifyReport:
    """Run every oracle section; return the aggregate report.

    ``runs`` scales the randomized sections (number of generated inputs per
    section); the metamorphic and golden sections are fixed-size.  All
    randomness derives from ``seed`` — identical arguments give identical
    reports, including any minimal reproducers.

    ``store``/``jobs`` accelerate the golden section through the engine's
    result cache and process pool; ``durability`` (a
    :class:`~repro.durability.supervisor.DurabilityPolicy`) routes the golden
    corpus through the supervised executor (resumable, checkpointed,
    optionally chaos-injected) with byte-identical results.  The randomized
    differential sections are in-process by construction (they fuzz
    components, not whole runs).
    """
    rng = random.Random(seed)
    report = VerifyReport(seed=seed, runs=runs)
    sections: list[Callable[[], SectionResult]] = [
        lambda: _verify_hierarchy(rng, runs),
        lambda: _verify_sequitur(rng, runs),
        lambda: _verify_streams(rng, runs),
        lambda: _verify_invariants(rng, runs),
        _verify_tenancy,
        _verify_fastpath,
        _verify_obs,
    ]
    if include_golden:
        sections.append(
            lambda: _verify_golden(golden_dir, store=store, jobs=jobs, durability=durability)
        )
    for build in sections:
        section = build()
        report.sections.append(section)
        if progress is not None:
            verdict = "ok" if section.ok else "FAIL"
            progress(f"{section.name}: {section.cases} cases, {verdict}")
    return report
