"""Smoke tests of the end-to-end benchmark at a tiny scale.

Run with ``PYTHONPATH=src python -m pytest benchmarks/e2e``.
"""

from __future__ import annotations

import json
import os
import re
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]
sys.path.insert(0, str(HERE))
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
NAME = re.compile(r"[A-Za-z0-9_.-]+")


def bench(*args: str, env=None, cwd=ROOT, out: Path | None = None):
    """Run run.py at the smoke scale; returns (process, result document)."""
    cmd = [sys.executable, str(HERE / "run.py"), "--scale", "0.05", "--seconds", "0", *args]
    if out is not None:
        cmd += ["--out", str(out)]
    proc = subprocess.run(cmd, cwd=cwd, env=env, capture_output=True, text=True, timeout=300)
    doc = json.loads(out.read_text()) if out is not None and out.is_file() else None
    return proc, doc


def last_json(proc) -> dict:
    return json.loads(proc.stdout.strip().splitlines()[-1])


def cycles(doc: dict, workload: str) -> dict:
    return {
        name: cell["fields"].get("cycles", cell["fields"].get("global_cycles"))
        for name, cell in doc["workloads"][workload]["cells"].items()
    }


@pytest.fixture(scope="module")
def tenancy_runs(tmp_path_factory):
    """Seed 0 twice and seed 1 once, with REPRO_* set in the caller."""
    tmp = tmp_path_factory.mktemp("e2e")
    env = dict(os.environ, REPRO_FASTPATH="0", REPRO_FAULT_SEED="7")
    runs = {}
    for key, seed in (("a", "0"), ("b", "0"), ("c", "1")):
        proc, doc = bench("--workload", "tenancy", "--seed", seed, env=env, out=tmp / f"{key}.json")
        assert proc.returncode == 0, proc.stderr
        runs[key] = (proc, doc)
    return runs


def test_names_match_benchmark_json(tenancy_runs):
    import run

    assert [w["name"] for w in SPEC["workloads"]] == list(run.WORKLOADS)
    proc, _ = tenancy_runs["a"]
    result = last_json(proc)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    assert list(result["metrics"]) == [m["name"] for m in SPEC["end_to_end"]]
    for metric in SPEC["end_to_end"]:
        assert result["metrics"][metric["name"]]["unit"] == metric["unit"]
        assert result["metrics"][metric["name"]]["value"] > 0
    printed = [line.split() for line in proc.stdout.splitlines()[:-1]]
    assert printed and all(len(f) == 4 and f[0] == "tenancy" for f in printed)
    names = [f[1] for f in printed] + [m["name"] for m in SPEC["per_layer"]]
    names += [w["name"] for w in SPEC["workloads"]]
    assert all(NAME.fullmatch(n) for n in names)


def test_seed_changes_cycles_and_repeats_do_not(tenancy_runs):
    a, b, c = (tenancy_runs[k][1] for k in "abc")
    digests = [
        {name: cell["digest"] for name, cell in doc["workloads"]["tenancy"]["cells"].items()}
        for doc in (a, b)
    ]
    assert digests[0] == digests[1]
    assert cycles(a, "tenancy") != cycles(c, "tenancy")


def test_repro_environment_does_not_reach_workers(tenancy_runs):
    for _, doc in tenancy_runs.values():
        assert doc["workloads"]["tenancy"]["repro_env"] == ["REPRO_CACHE_DIR"]


def test_wrappers_are_fully_removed():
    import cells
    import worker
    from probe import Probe

    targets = worker.layer_targets() + worker.setup_targets(cells)

    def current(owner, attr):
        return owner.__dict__[attr] if isinstance(owner, type) else getattr(owner, attr)

    before = [current(owner, attr) for owner, attr, _ in targets]
    probe = Probe()
    for owner, attr, layer in targets:
        probe.wrap(owner, attr, layer)
    assert all(current(o, a) is not f for (o, a, _), f in zip(targets, before))
    assert probe.unwrap() == []
    assert all(current(o, a) is f for (o, a, _), f in zip(targets, before))


def test_patch_watch_counts_reused_ids_without_holding_copies():
    import weakref

    import worker

    class Program:
        def patch(self, name, replacement):
            self.patched = replacement

    class Copy:
        pass

    original = Program.__dict__["patch"]
    watch = worker.PatchWatch()
    assert watch.install(Program) is original
    program = Program()
    watch.begin()
    copy = Copy()
    ident, alive = id(copy), weakref.ref(copy)
    program.patch("f", copy)
    del copy
    program.patched = None
    assert alive() is None and watch.freed == {ident} and watch.reused == 0
    again = Copy()
    watch.freed.add(id(again))  # as if `again` had landed on a freed copy's address
    program.patch("f", again)
    assert watch.reused == 1
    watch.begin()
    assert watch.freed == set() and watch.reused == 0


def test_traced_run(tmp_path):
    seed = "7"
    trace = HERE / "results" / f"trace-{seed}.json"
    try:
        proc, doc = bench("--workload", "fig12", "--seed", seed, "--trace", out=tmp_path / "t.json")
        assert proc.returncode == 0, proc.stderr
        result = last_json(proc)
        # the worker fails the run on leftover wrappers, hierarchy wrapper
        # calls on fig12, unattributed time over 5 % or traced outputs that
        # differ from untraced ones
        assert result["correct"], proc.stdout
        assert list(result["metrics"]) == [m["name"] for m in SPEC["per_layer"]]
        layers = doc["workloads"]["fig12"]["per_layer"]
        assert layers["machine.access_calls"][0] == 0
        parts = [v for k, (v, unit) in layers.items() if k.endswith("_s") and unit == "s"
                 and k not in ("trace.wall_s", "workloads.build_s", "vulcan.instrument_s")]
        assert sum(parts) == pytest.approx(layers["trace.wall_s"][0], rel=1e-9)
        from repro.telemetry.export import load_chrome_trace

        assert load_chrome_trace(trace)["traceEvents"]
    finally:
        trace.unlink(missing_ok=True)


def test_refuses_to_run_without_the_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "benchmarks" / "e2e",
                    ignore=shutil.ignore_patterns(".work", "__pycache__", "trace-*.json"))
    proc = subprocess.run(
        [sys.executable, "benchmarks/e2e/run.py", "--workload", "fig11", "--seed", "0",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
