"""End-to-end host-time benchmark of the simulator.

Runs each workload in a worker process of its own, one after another, prints
every metric as ``workload metric value unit`` and, as its last line, one
JSON object ``{"correct", "attempted", "failed", "metrics"}``.  Every cell's
simulated output is checked; see README.md in this directory.

    python3 benchmarks/e2e/run.py [--workload W] [--seed N] [--seconds S]
                                  [--trace [0|1]] [--out FILE] [--strict]
    python3 benchmarks/e2e/run.py --freeze --seed N
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import signal
import subprocess
import sys
import tempfile
from pathlib import Path
from typing import Optional

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]
#: scratch space of the workers, removed after each one
WORK = HERE / ".work"

WORKLOADS = ("fig11", "fig12", "tenancy", "observed")
#: A worker that has not finished by then is killed (the command as a whole
#: must end within three minutes per workload).
WORKER_TIMEOUT_S = 170


def parse_args(argv=None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--workload", choices=WORKLOADS,
        help="run one workload (default: all); BENCHMARK.json's command is run once per "
        "workload with --workload W --seed N --seconds S --trace 0|1",
    )
    parser.add_argument("--seed", type=int, default=0, help="workload seed (0 = canonical inputs)")
    parser.add_argument(
        "--seconds", type=float, default=20.0, help="host time each workload measures (default 20)"
    )
    parser.add_argument(
        "--trace", type=int, nargs="?", const=1, default=0, choices=(0, 1),
        help="1: alternate untraced and traced rounds and report per-layer metrics",
    )
    parser.add_argument(
        "--scale", type=float, default=1.0, help="multiply every cell's pass count (smoke tests)"
    )
    parser.add_argument("--out", help="also write the full result document to this file")
    parser.add_argument(
        "--freeze", action="store_true",
        help="run every cell once on the reference kernel and write expected/seed<N>.json",
    )
    parser.add_argument("--strict", action="store_true", help="exit 1 when any cell fails")
    args = parser.parse_args(argv)
    if args.freeze and (args.scale != 1.0 or args.trace):
        parser.error("--freeze records the benchmark's own sizes, untraced")
    return args


def run_worker(name: str, args: argparse.Namespace) -> Optional[dict]:
    """Run one workload's worker; its JSON document, or None if it failed."""
    WORK.mkdir(exist_ok=True)
    tmp = Path(tempfile.mkdtemp(prefix=f"{name}-", dir=WORK))
    env = {k: v for k, v in os.environ.items() if not k.startswith("REPRO_")}
    env["REPRO_CACHE_DIR"] = str(tmp / "cache")
    env["PYTHONPATH"] = os.pathsep.join(
        [str(ROOT / "src")] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else [])
    )
    cmd = [
        sys.executable, str(HERE / "worker.py"),
        "--workload", name,
        "--seed", str(args.seed),
        "--seconds", str(args.seconds),
        "--trace", str(args.trace),
        "--scale", str(args.scale),
        "--tmp", str(tmp),
    ] + (["--freeze"] if args.freeze else [])
    proc = subprocess.Popen(cmd, cwd=ROOT, env=env, stdout=subprocess.PIPE, text=True)
    try:
        out, _ = proc.communicate(timeout=None if args.freeze else WORKER_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        print(f"run.py: {name} did not finish in {WORKER_TIMEOUT_S} s", file=sys.stderr)
        return None
    finally:
        if proc.poll() is None:
            proc.kill()
        proc.wait()
        shutil.rmtree(tmp, ignore_errors=True)
    if proc.returncode != 0:
        print(f"run.py: {name} worker exited with status {proc.returncode}", file=sys.stderr)
        return None
    try:
        return json.loads(out.strip().splitlines()[-1])
    except (IndexError, json.JSONDecodeError):
        print(f"run.py: {name} worker printed no result", file=sys.stderr)
        return None


def freeze(args: argparse.Namespace, docs: list[dict]) -> int:
    """Record the reference kernel's outputs as the expected outputs."""
    problems = [p for doc in docs for p in doc["problems"]]
    if problems:
        print("\n".join(problems), file=sys.stderr)
        print("run.py: not freezing a seed whose cells fail their checks", file=sys.stderr)
        return 1
    path = HERE / "expected" / f"seed{args.seed}.json"
    frozen = json.loads(path.read_text())["cells"] if path.is_file() else {}
    for doc in docs:
        for name, cell in doc["cells"].items():
            frozen[name] = {k: cell[k] for k in ("passes", "fields", "digest")}
    path.parent.mkdir(exist_ok=True)
    # One cell per line keeps the files small and their diffs readable.
    lines = ",\n".join(
        f"{json.dumps(name)}:{json.dumps(cell, separators=(',', ':'))}"
        for name, cell in frozen.items()
    )
    path.write_text(
        f'{{"seed":{args.seed},"kernel":"reference","cells":{{\n{lines}\n}}}}\n'
    )
    print(f"froze {len(frozen)} cells of seed {args.seed} into {path.relative_to(ROOT)}")
    return 0


def chrome_trace(docs: list[dict]) -> dict:
    """The workers' spans as Chrome trace events: one process per workload,
    one thread per layer, properly nested ``B``/``E`` pairs."""
    events: list[dict] = []
    for pid, doc in enumerate(docs, start=1):
        events.append({"ph": "M", "ts": 0, "pid": pid, "tid": 0, "name": "process_name",
                       "args": {"name": doc["workload"]}})
        tids: dict[str, int] = {"cells": 1}
        by_tid: dict[int, list] = {}
        for layer, name, t0, t1 in doc["spans"]:
            tid = tids.setdefault(layer, len(tids) + 1)
            by_tid.setdefault(tid, []).append((t0, t1, name, layer))
        for layer, tid in tids.items():
            events.append({"ph": "M", "ts": 0, "pid": pid, "tid": tid, "name": "thread_name",
                           "args": {"name": layer}})
        for tid, spans in sorted(by_tid.items()):
            open_spans: list = []
            for t0, t1, name, layer in sorted(spans, key=lambda s: (s[0], -s[1])):
                while open_spans and open_spans[-1][0] <= t0:
                    end, ended = open_spans.pop()
                    events.append({"ph": "E", "ts": end, "pid": pid, "tid": tid, "name": ended})
                events.append({"ph": "B", "ts": t0, "pid": pid, "tid": tid, "name": name,
                               "cat": layer})
                open_spans.append((t1, name))
            while open_spans:
                end, ended = open_spans.pop()
                events.append({"ph": "E", "ts": end, "pid": pid, "tid": tid, "name": ended})
    return {"traceEvents": events, "displayTimeUnit": "ms"}


def main(argv=None) -> int:
    args = parse_args(argv)
    # On SIGTERM unwind normally, so the running worker is killed, waited
    # for and its scratch directory removed.
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(f"run.py: no simulator sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    names = [args.workload] if args.workload else list(WORKLOADS)
    docs = []
    for name in names:
        doc = run_worker(name, args)
        if doc is None:
            return 1
        docs.append(doc)
    if args.freeze:
        return freeze(args, docs)

    section = "per_layer" if args.trace else "end_to_end"
    wanted = [m["name"] for m in spec[section]]
    metrics: dict[str, dict] = {}
    for doc in docs:
        workload = doc["workload"]
        for problem in doc["problems"]:
            print(f"{workload} FAILED {problem}")
        for group in ("end_to_end", "per_layer"):
            for metric, (value, unit) in doc[group].items():
                print(f"{workload} {metric} {value!r} {unit}")
        print(
            f"{workload} cells_run {doc['attempted']} count\n"
            f"{workload} cells_failed {doc['failed']} count\n"
            f"{workload} rounds {doc['rounds']} count"
        )
        for metric in wanted:
            if metric not in doc[section]:
                print(f"run.py: {workload} did not report {metric}", file=sys.stderr)
                return 1
            value, unit = doc[section][metric]
            key = metric if len(docs) == 1 else f"{workload}.{metric}"
            metrics[key] = {"value": value, "unit": unit}

    if args.trace:
        path = HERE / "results" / f"trace-{args.seed}.json"
        path.parent.mkdir(exist_ok=True)
        path.write_text(json.dumps(chrome_trace(docs), separators=(",", ":")) + "\n")
        print(f"span trace written to {path.relative_to(ROOT)}", file=sys.stderr)
    if args.out:
        document = {
            "seed": args.seed,
            "seconds": args.seconds,
            "scale": args.scale,
            "trace": args.trace,
            "host": {
                "machine": platform.machine(),
                "cpus": os.cpu_count(),
                "python": platform.python_version(),
            },
            "workloads": {
                doc["workload"]: {k: v for k, v in doc.items() if k != "spans"} for doc in docs
            },
        }
        Path(args.out).write_text(json.dumps(document, indent=1) + "\n")

    failed = sum(doc["failed"] for doc in docs)
    print(json.dumps({
        "correct": failed == 0,
        "attempted": sum(doc["attempted"] for doc in docs),
        "failed": failed,
        "metrics": metrics,
    }))
    return 1 if args.strict and failed else 0


if __name__ == "__main__":
    sys.exit(main())
