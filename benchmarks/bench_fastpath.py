"""Fastpath speedup benchmark: the compiled kernel vs the reference loop.

Four tiers, each bit-identity-checked while it is timed:

``dispatch_micro``   an ALU/branch-dominated loop — pure dispatch overhead,
                     the fastpath's best case (no memory-system work).
``cache_micro``      a cache-resident pointer ring — dispatch plus the
                     inlined L1-hit path.
``call_micro``       an 8-instruction loop that calls a 3-instruction leaf
                     (a load, an add, a RET) on every trip — the cost of a
                     procedure crossing, which a compiled CALL makes
                     without leaving the caller's kernel.
``figures``          the real experiment grid (6 workloads x orig/dyn,
                     one pass), cold (first compile included) and warm.

The hard gates are deliberately honest rather than aspirational.  The
end-to-end figures grid is Amdahl-bound: its ``dyn`` cells spend much of
their time in Sequitur grammar construction and hot-stream analysis — Python
that the kernel does not (and must not) touch — so the whole-run speedup
sits well below the kernel-only speedup.  One extra compiled pass over the
grid measures those layers' share of its time, and a missed figures target
cites it.  The aspirational targets (10x dispatch, 5x end-to-end) are
recorded in the JSON and produce a soft warning when missed; dropping below
the hard floor fails the run, which is the regression signal CI acts on.

Usage:
    python benchmarks/bench_fastpath.py            # full run, writes BENCH_fastpath.json
    python benchmarks/bench_fastpath.py --quick    # CI-sized run
    python benchmarks/bench_fastpath.py --out PATH # write elsewhere
"""

from __future__ import annotations

import argparse
import json
import platform
import sys
import time
from pathlib import Path

from repro.analysis.hotstreams import HotStreamAnalyzer
from repro.core.optimizer import DynamicPrefetcher
from repro.engine.levels import execute_workload
from repro.fastpath.compiler import clear_cache
from repro.interp.interpreter import Interpreter
from repro.ir.builder import ProcedureBuilder, build_program
from repro.machine.memory import Memory
from repro.sequitur.sequitur import Sequitur
from repro.workloads import build_named, names

REPO_ROOT = Path(__file__).resolve().parent.parent
DEFAULT_OUT = REPO_ROOT / "BENCH_fastpath.json"

#: Hard floors fail the run; targets are aspirational and only warn.
#: The micro floors are the real regression gates (the kernel controls that
#: time).  ``call_micro``'s floor catches a CALL or RET that leaves the
#: kernel again: through the trampoline, a crossing costs more than the
#: reference loop's.  On a shared 2-core x86 host, one process per run of
#: the section (full-size and ``--quick``), 22 runs read 0.99-1.14x with
#: every crossing through the trampoline and 23 read 1.23-1.87x with direct
#: calls, 22 of the latter 1.48x or more (the host's speed varied up to
#: 1.8x from one process to the next), so 1.2x lies between the two.  The
#: figures floors only assert "no material end-to-end regression" (0.85
#: absorbs timer noise): at small pass counts the dyn cells spend much of
#: their time in Sequitur and hot-stream analysis, which the kernel does
#: not run, so whole-grid speedup is structurally ~1.3-1.7x, not 5x.
#: Recompiles are not part of that bound: a reinjected copy, or a procedure
#: of a rebuilt workload, reuses the kernel built for its shape.
GATES = {
    "dispatch_micro": {"fail_below": 2.5, "target": 10.0},
    "cache_micro": {"fail_below": 1.8, "target": 5.0},
    "call_micro": {"fail_below": 1.2, "target": 3.0},
    "figures_cold": {"fail_below": 0.85, "target": 5.0},
    "figures_warm": {"fail_below": 0.85, "target": 5.0},
}

#: Timed runs per kernel in each micro section, ``--quick`` included: a
#: section takes seconds, and its best-of-N is what the floors gate.
MICRO_REPEATS = 5

FIGURES_LEVELS = ("orig", "dyn")

#: Layers the compiled kernel does not run, by the name the end-to-end
#: benchmark gives them: their share of a compiled figures run bounds its
#: speedup.  ``core.optimizer`` is the rest of the online optimizer (DFSM
#: build, handler codegen, Vulcan patching).
UNTOUCHED_LAYERS = {
    "sequitur.extend_batch": (Sequitur, "extend_batch"),
    "analysis.hot_streams": (HotStreamAnalyzer, "find_hot_streams"),
    "core.optimizer": (DynamicPrefetcher, "burst_end"),
}


def _ring_memory(nodes=64, stride=32):
    mem = Memory()
    base = mem.allocate(nodes * stride)
    for i in range(nodes):
        mem.store(base + i * stride, base + ((i + 1) % nodes) * stride)
        mem.store(base + i * stride + 4, i)
    return mem, base


def _dispatch_program():
    """ALU soup over a pointer ring; values masked so ints stay small."""
    b = ProcedureBuilder("alumix", params=("head", "iters"))
    total, node, i = b.reg("total"), b.reg("node"), b.reg("i")
    a, c, m = b.reg("a"), b.reg("c"), b.reg("m")
    b.const(total, 0)
    b.const(a, 7)
    b.const(c, 3)
    b.const(m, 0xFFFFFF)
    b.mov(node, b.param("head"))
    b.mov(i, b.param("iters"))
    b.label("loop")
    v = b.load(None, node, 4)
    b.add(total, total, v)
    b.alu("xor", a, a, total)
    b.alui("shl", c, a, 1)
    b.alu("and", c, c, m)
    b.alui("add", a, a, 13)
    b.alu("sub", total, total, c)
    b.alui("shr", c, total, 2)
    b.alu("or", a, a, c)
    b.alu("and", a, a, m)
    b.alu("and", total, total, m)
    b.load(node, node, 0)
    b.alui("sub", i, i, 1)
    b.bnz(i, "loop")
    b.ret(total)
    return build_program([b.build()], entry="alumix")


def _cache_program():
    """Minimal pointer-chase: every other instruction is a (hitting) load."""
    b = ProcedureBuilder("hotloop", params=("head", "iters"))
    total, node, i = b.reg("total"), b.reg("node"), b.reg("i")
    b.const(total, 0)
    b.mov(node, b.param("head"))
    b.mov(i, b.param("iters"))
    b.label("loop")
    v = b.load(None, node, 4)
    b.add(total, total, v)
    b.load(node, node, 0)
    b.alui("sub", i, i, 1)
    b.bnz(i, "loop")
    b.ret(total)
    return build_program([b.build()], entry="hotloop")


def _call_program():
    """A pointer chase whose every trip calls a leaf that loads the node's
    value and adds one to it."""
    leaf = ProcedureBuilder("leaf", params=("node",))
    v = leaf.reg("v")
    leaf.load(v, leaf.param("node"), 4)
    leaf.alui("add", v, v, 1)
    leaf.ret(v)
    b = ProcedureBuilder("caller", params=("head", "iters"))
    total, node, i = b.reg("total"), b.reg("node"), b.reg("i")
    a, m, v = b.reg("a"), b.reg("m"), b.reg("v")
    b.const(total, 0)
    b.const(a, 7)
    b.const(m, 0xFFFFFF)
    b.mov(node, b.param("head"))
    b.mov(i, b.param("iters"))
    b.label("loop")
    b.call(v, "leaf", (node,))
    b.add(total, total, v)
    b.load(node, node, 0)
    b.alu("xor", a, a, total)
    b.alu("and", a, a, m)
    b.alu("and", total, total, m)
    b.alui("sub", i, i, 1)
    b.bnz(i, "loop")
    b.ret(total)
    return build_program([b.build(), leaf.build()], entry="caller")


def _alternating(repeats, one_run):
    """Call ``one_run(fast)``, which returns ``(seconds, output)``, ``repeats``
    times per kernel.  The kernels alternate and take turns going first, so
    a drift in host speed during a section reaches both kernels' times.
    Returns each kernel's times and last output, keyed by ``fast``."""
    times = {False: [], True: []}
    outs = {}
    for k in range(repeats):
        for fast in (k % 2 == 1, k % 2 == 0):
            dt, outs[fast] = one_run(fast)
            times[fast].append(dt)
    return times, outs


def _time_micro(program, iters, repeats):
    """Best-of-N for each kernel on fresh memory; asserts identical stats.

    One untimed compiled run first builds the kernels, so no timed run
    includes a compile and each kernel's best is of N warm runs."""

    def one_run(fast):
        mem, base = _ring_memory()
        interp = Interpreter(program, mem)
        t0 = time.perf_counter()
        out = interp.run((base, iters), fast=fast)
        return time.perf_counter() - t0, out.to_dict()

    clear_cache()
    one_run(True)
    times, stats = _alternating(repeats, one_run)
    if stats[True] != stats[False]:
        raise SystemExit("identity violation in microbenchmark — aborting")
    ref, fast_t = min(times[False]), min(times[True])
    return {
        "reference_s": round(ref, 4),
        "fastpath_s": round(fast_t, 4),
        "speedup": round(ref / fast_t, 2),
        "instructions": stats[True]["instructions"],
    }


def _untouched_shares(run):
    """Each of UNTOUCHED_LAYERS' self-time share of ``run()``'s wall time
    (time in a nested call of another listed layer is that layer's)."""
    spent = dict.fromkeys(UNTOUCHED_LAYERS, 0.0)
    nested = [0.0]  # per open call: time spent in listed calls inside it

    def timed(layer, fn):
        def wrapper(*args, **kwargs):
            nested.append(0.0)
            t0 = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                dt = time.perf_counter() - t0
                spent[layer] += dt - nested.pop()
                nested[-1] += dt
        return wrapper

    saved = []
    for layer, (owner, attr) in UNTOUCHED_LAYERS.items():
        saved.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, timed(layer, owner.__dict__[attr]))
    try:
        t0 = time.perf_counter()
        run()
        total = time.perf_counter() - t0
    finally:
        for owner, attr, fn in saved:
            setattr(owner, attr, fn)
    return {layer: round(s / total, 3) for layer, s in spent.items()}


def _time_figures(passes, repeats):
    """The experiment grid under each kernel; cold includes first compile."""
    grid = [(w, lv) for w in names() for lv in FIGURES_LEVELS]

    def one_pass(fast):
        t0 = time.perf_counter()
        docs = []
        for workload, level in grid:
            result = execute_workload(build_named(workload, passes=passes), level, fast=fast)
            docs.append(result.to_dict())
        return time.perf_counter() - t0, docs

    clear_cache()
    cold, cold_docs = one_pass(True)  # includes compiling every procedure
    times, docs = _alternating(repeats, one_pass)
    if cold_docs != docs[False] or docs[True] != docs[False]:
        raise SystemExit("identity violation in figures grid — aborting")
    shares = _untouched_shares(lambda: one_pass(True))
    ref, warm_times = min(times[False]), times[True]
    return {
        "grid": [f"{w}/{lv}" for w, lv in grid],
        "passes": passes,
        "reference_s": round(ref, 3),
        "fastpath_cold_s": round(cold, 3),
        "fastpath_warm_s": round(min(warm_times), 3),
        "speedup_cold": round(ref / cold, 2),
        "speedup_warm": round(ref / min(warm_times), 2),
        "untouched_shares": shares,
    }


def run_benchmark(quick=False):
    micro_iters = 60_000 if quick else 200_000
    sections = {
        "dispatch_micro": _time_micro(_dispatch_program(), micro_iters, MICRO_REPEATS),
        "cache_micro": _time_micro(_cache_program(), micro_iters, MICRO_REPEATS),
        "call_micro": _time_micro(_call_program(), micro_iters, MICRO_REPEATS),
        "figures": _time_figures(passes=1 if quick else 2, repeats=2 if quick else 3),
    }
    speedups = {
        "dispatch_micro": sections["dispatch_micro"]["speedup"],
        "cache_micro": sections["cache_micro"]["speedup"],
        "call_micro": sections["call_micro"]["speedup"],
        "figures_cold": sections["figures"]["speedup_cold"],
        "figures_warm": sections["figures"]["speedup_warm"],
    }
    shares = sections["figures"]["untouched_shares"]
    amdahl = (
        f"Amdahl-bound: {sum(shares.values()):.0%} of the compiled grid's time is in "
        "layers the kernel does not run: "
        + ", ".join(f"{layer} {share:.0%}" for layer, share in shares.items())
    )
    failures, warnings = [], []
    for key, gate in GATES.items():
        got = speedups[key]
        if got < gate["fail_below"]:
            failures.append(f"{key}: {got}x < hard floor {gate['fail_below']}x")
        elif got < gate["target"]:
            reason = f" ({amdahl})" if key.startswith("figures_") else ""
            warnings.append(f"{key}: {got}x below aspirational {gate['target']}x{reason}")
    return {
        "schema": 1,
        "quick": quick,
        "python": platform.python_version(),
        "implementation": platform.python_implementation(),
        "machine": platform.machine(),
        "gates": GATES,
        "speedups": speedups,
        "sections": sections,
        "warnings": warnings,
        "failures": failures,
        "status": "fail" if failures else "pass",
    }


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--quick", action="store_true", help="CI-sized run")
    parser.add_argument("--out", type=Path, default=DEFAULT_OUT,
                        help=f"output JSON path (default: {DEFAULT_OUT})")
    parser.add_argument("--no-write", action="store_true",
                        help="measure and gate without touching the JSON")
    args = parser.parse_args(argv)
    doc = run_benchmark(quick=args.quick)
    for key, value in doc["speedups"].items():
        print(f"{key:<16} {value:>6.2f}x")
    for line in doc["warnings"]:
        print(f"warning: {line}")
    for line in doc["failures"]:
        print(f"FAIL: {line}")
    if not args.no_write:
        args.out.write_text(json.dumps(doc, indent=2, sort_keys=True) + "\n")
        print(f"wrote {args.out}")
    print(f"status: {doc['status']}")
    return 1 if doc["failures"] else 0


if __name__ == "__main__":
    sys.exit(main())
