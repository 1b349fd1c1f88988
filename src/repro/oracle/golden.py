"""Golden trace corpus: frozen per-run stats for all seven workloads.

Each golden entry runs one workload at one measurement level with a small,
fixed pass count and captures every deterministic counter the simulation
produces — interpreter stats, per-level cache counters, the prefetch
classification and the optimizer summary — as a JSON file under
``tests/golden/``.  Verification re-runs the workload and compares
bit-for-bit: the simulator is fully deterministic, so *any* drift is either
an intended behaviour change (re-record with ``repro-bench verify
--update-golden``) or a regression (fix it).

The corpus covers the six Section 4.1 preset analogues plus the adversarial
``phaseshift`` workload, each at ``orig`` (pure simulation baseline) and
``dyn`` (the full online pipeline), so a drift pinpoints which half moved.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from pathlib import Path
from typing import Optional, Union

from repro.engine.cache import ResultStore
from repro.engine.executor import execute_plan, run_spec
from repro.engine.result import RunResult
from repro.engine.spec import RunPlan, RunSpec
from repro.errors import OracleError
from repro.oracle.invariants import run_fingerprint
from repro.workloads import presets
from repro.workloads.base import BuiltWorkload
from repro.workloads.phaseshift import build_phaseshift

#: Format version stamped into every golden file; bump on schema changes.
GOLDEN_FORMAT = 1

_SUMMARY_FIELDS = (
    "num_cycles",
    "guard_rejections",
    "stream_deopts",
    "early_wakes",
    "optimizer_errors",
    "faults_injected",
)


@dataclass(frozen=True)
class GoldenRun:
    """One (workload, level) cell of the corpus."""

    workload: str
    level: str
    passes: int

    @property
    def stem(self) -> str:
        return f"{self.workload}-{self.level}"


def _corpus() -> tuple[GoldenRun, ...]:
    runs = []
    for name in (*presets.names(), "phaseshift"):
        for level in ("orig", "dyn"):
            runs.append(GoldenRun(workload=name, level=level, passes=2))
    return tuple(runs)


#: The full corpus: seven workloads x (orig, dyn), two passes each.
GOLDEN_RUNS: tuple[GoldenRun, ...] = _corpus()


def default_golden_dir() -> Path:
    """``tests/golden`` of the repo this package lives in (src layout)."""
    in_repo = Path(__file__).resolve().parents[3] / "tests" / "golden"
    if in_repo.parent.is_dir():
        return in_repo
    return Path.cwd() / "tests" / "golden"


def build_golden_workload(run: GoldenRun) -> BuiltWorkload:
    if run.workload == "phaseshift":
        return build_phaseshift(passes=run.passes)
    return presets.build(run.workload, passes=run.passes)


def golden_spec(run: GoldenRun) -> RunSpec:
    """The engine spec equivalent to one corpus cell (default machine/opt)."""
    return RunSpec(workload=run.workload, level=run.level, passes=run.passes)


def execute_golden(run: GoldenRun, store: Optional[ResultStore] = None) -> RunResult:
    return run_spec(golden_spec(run), store=store)


def _execute_corpus(
    runs: tuple[GoldenRun, ...],
    store: Optional[ResultStore] = None,
    jobs: int = 1,
    durability=None,
) -> list[RunResult]:
    """Execute a batch of corpus cells (parallel when ``jobs > 1``).

    ``durability`` routes the batch through the supervised executor
    (stored results, checkpoints, retries) — byte-identical results, so golden
    verification under chaos is the same verification.
    """
    plan = RunPlan.of(*(golden_spec(run) for run in runs))
    return execute_plan(plan, jobs=jobs, store=store, durability=durability)


def golden_record(run: GoldenRun, result: RunResult) -> dict:
    """The JSON document frozen for one run."""
    record: dict = {
        "format": GOLDEN_FORMAT,
        "workload": run.workload,
        "level": run.level,
        "passes": run.passes,
        "stats": {k: v for k, v in sorted(run_fingerprint(result).items())},
    }
    if result.summary is not None:
        record["summary"] = {
            name: getattr(result.summary, name) for name in _SUMMARY_FIELDS
        }
    return record


def record_corpus(
    directory: Union[str, Path, None] = None,
    runs: Optional[tuple[GoldenRun, ...]] = None,
    store: Optional[ResultStore] = None,
    jobs: int = 1,
    durability=None,
) -> list[Path]:
    """(Re-)run every corpus entry and freeze its stats JSON; return paths."""
    runs = runs if runs is not None else GOLDEN_RUNS
    directory = Path(directory) if directory is not None else default_golden_dir()
    directory.mkdir(parents=True, exist_ok=True)
    written: list[Path] = []
    for run, result in zip(
        runs, _execute_corpus(runs, store=store, jobs=jobs, durability=durability)
    ):
        record = golden_record(run, result)
        path = directory / f"{run.stem}.json"
        path.write_text(json.dumps(record, indent=2, sort_keys=True) + "\n")
        written.append(path)
    return written


def verify_corpus(
    directory: Union[str, Path, None] = None,
    runs: Optional[tuple[GoldenRun, ...]] = None,
    workload: Optional[str] = None,
    store: Optional[ResultStore] = None,
    jobs: int = 1,
    durability=None,
) -> list[str]:
    """Re-run the corpus and diff against the frozen files.

    Returns a list of human-readable mismatch descriptions (empty = all
    bit-identical).  A missing golden file is a mismatch, not an error — the
    caller decides whether to record.

    ``store``/``jobs`` route the executions through the engine's result
    cache and process pool; because the cache key covers the simulator's
    code version, a cached replay verifies exactly what a live run would.
    """
    runs = runs if runs is not None else GOLDEN_RUNS
    if workload is not None:
        runs = tuple(run for run in runs if run.workload == workload)
    directory = Path(directory) if directory is not None else default_golden_dir()
    failures: list[str] = []
    for run, result in zip(
        runs, _execute_corpus(runs, store=store, jobs=jobs, durability=durability)
    ):
        path = directory / f"{run.stem}.json"
        if not path.is_file():
            failures.append(f"{run.stem}: golden file missing ({path})")
            continue
        try:
            frozen = json.loads(path.read_text())
        except json.JSONDecodeError as err:
            failures.append(f"{run.stem}: golden file unreadable: {err}")
            continue
        fresh = golden_record(run, result)
        if frozen != fresh:
            failures.append(_describe_drift(run, frozen, fresh))
    return failures


def check_corpus(
    directory: Union[str, Path, None] = None,
    runs: Optional[tuple[GoldenRun, ...]] = None,
    store: Optional[ResultStore] = None,
    jobs: int = 1,
    durability=None,
) -> None:
    """Raise :class:`OracleError` on any corpus drift (test-friendly form)."""
    failures = verify_corpus(directory, runs, store=store, jobs=jobs, durability=durability)
    if failures:
        raise OracleError("golden corpus drift:\n" + "\n".join(failures))


def _describe_drift(run: GoldenRun, frozen: dict, fresh: dict) -> str:
    drifted: list[str] = []
    for section in ("stats", "summary"):
        old = frozen.get(section, {}) or {}
        new = fresh.get(section, {}) or {}
        for key in sorted(set(old) | set(new)):
            if old.get(key) != new.get(key):
                drifted.append(f"{section}.{key}: {old.get(key)} -> {new.get(key)}")
    for key in ("format", "workload", "level", "passes"):
        if frozen.get(key) != fresh.get(key):
            drifted.append(f"{key}: {frozen.get(key)} -> {fresh.get(key)}")
    detail = ", ".join(drifted) if drifted else "files differ"
    return f"{run.stem}: {detail}"
