"""One workload of the end-to-end benchmark, in a process of its own.

``run.py`` starts this script once per workload, with ``src`` on
``PYTHONPATH``, and reads the JSON document it prints as its last line of
standard output.  The worker repeats *rounds* — one pass over every cell of
the workload — until ``--seconds`` of host time are used, and reports each
cell's median round.  With ``--trace 1`` every second round runs with the
layer wrappers of :func:`layer_targets` installed; end-to-end numbers come
only from the untraced rounds.  ``--freeze`` runs a single round on the
reference kernel.
"""

import argparse
import gc
import json
import os
import resource
import statistics
import subprocess
import sys
import time
import traceback
import weakref
from pathlib import Path

import hostspeed
from probe import Probe

#: Process start as this module sees it (span times are relative to it).
_T0_NS = time.perf_counter_ns()

HERE = Path(__file__).resolve().parent

#: Layers whose self time is reported, in the order they are printed.
EXEC_LAYERS = (
    "interp.execute",
    "fastpath.compile",
    "machine.access",
    "profiling.flush",
    "sequitur.extend_batch",
    "analysis.hot_streams",
    "dfsm.build",
    "dfsm.codegen",
    "vulcan.patch",
    "core.optimizer",
    "tenancy.schedule",
    "telemetry.emit",
    "obs.stream",
    "telemetry.export",
    "tracing.ledger",
    "tracing.attribution",
)
#: Layers that prepare a run; their time is set-up, never wall time.
SETUP_LAYERS = ("workloads.build", "vulcan.instrument")

#: The unattributed share of traced wall time above which the trace fails.
MAX_UNATTRIBUTED = 0.05


def layer_targets():
    """``(owner, attribute, layer)`` for every traced entry point.

    Each wrapper goes on the binding its caller actually uses: the
    optimizer's imported names, the kernel's ``compiled_entry`` global, and
    class attributes for methods.  ``MemoryHierarchy.access`` is wrapped on
    the class, so the compiled kernel still recognises the plain hierarchy
    and keeps its inlined memory path.
    """
    from repro.analysis.hotstreams import HotStreamAnalyzer
    from repro.core import optimizer
    from repro.core.optimizer import DynamicPrefetcher
    from repro.fastpath import kernel
    from repro.interp.interpreter import Interpreter
    from repro.machine.hierarchy import MemoryHierarchy
    from repro.obs.stream import StreamingTraceSink
    from repro.profiling.profiler import TemporalProfiler
    from repro.sequitur.sequitur import Sequitur
    from repro.telemetry import export
    from repro.telemetry.events import EventBus
    from repro.tenancy import scheduler
    from repro.tenancy.hierarchy import TenantHierarchy
    from repro.tracing.attribution import ProcAttrRecorder
    from repro.tracing.ledger import PrefetchLedger

    return [
        (Interpreter, "run", "interp.execute"),
        (Interpreter, "run_slice", "interp.execute"),
        (kernel, "compiled_entry", "fastpath.compile"),
        (MemoryHierarchy, "access", "machine.access"),
        (MemoryHierarchy, "issue_prefetch", "machine.access"),
        (TenantHierarchy, "access", "machine.access"),
        (TenantHierarchy, "issue_prefetch", "machine.access"),
        (TemporalProfiler, "flush", "profiling.flush"),
        (Sequitur, "extend_batch", "sequitur.extend_batch"),
        (HotStreamAnalyzer, "find_hot_streams", "analysis.hot_streams"),
        (optimizer, "build_dfsm", "dfsm.build"),
        (optimizer, "generate_handlers", "dfsm.codegen"),
        (optimizer, "inject_detection", "vulcan.patch"),
        (optimizer, "reinject_detection", "vulcan.patch"),
        (optimizer, "deoptimize", "vulcan.patch"),
        (DynamicPrefetcher, "burst_end", "core.optimizer"),
        (scheduler, "run_tenant_plan", "tenancy.schedule"),
        (EventBus, "emit", "telemetry.emit"),
        (StreamingTraceSink, "handle", "obs.stream"),
        (StreamingTraceSink, "close", "obs.stream"),
        (export, "write_chrome_trace", "telemetry.export"),
        (PrefetchLedger, "on_issue", "tracing.ledger"),
        (PrefetchLedger, "on_use", "tracing.ledger"),
        (PrefetchLedger, "on_evict", "tracing.ledger"),
        (PrefetchLedger, "on_expire", "tracing.ledger"),
        (ProcAttrRecorder, "charge_state", "tracing.attribution"),
    ]


def setup_targets(cells):
    """Entry points of the set-up layers, wrapped for the whole process."""
    from repro.engine import levels
    from repro.tenancy import scheduler

    return [
        (cells, "build_workload", "workloads.build"),
        (levels, "instrument_program", "vulcan.instrument"),
        (scheduler, "instrument_program", "vulcan.instrument"),
    ]


class PatchWatch:
    """Counts, per cell, procedure copies passed to ``Program.patch`` that
    get the ``id()`` of an earlier copy of the same cell that was freed.

    ``run_fast`` memoizes compiled code per run under ``id(proc)``
    (``repro/fastpath/kernel.py``), so such a copy can be run with the freed
    copy's compiled code; a failing cell that saw one is labelled as that
    defect.  The watch holds no reference to any copy, so what is measured
    is the program as it is.
    """

    def __init__(self) -> None:
        self.cell = 0
        self.freed: set[int] = set()
        self.reused = 0

    def begin(self) -> None:
        self.cell += 1
        self.freed.clear()
        self.reused = 0

    def _freed(self, cell: int, ident: int) -> None:
        if cell == self.cell:
            self.freed.add(ident)

    def install(self, program_class):
        """Wrap ``program_class.patch``; returns the original to restore."""
        original = program_class.__dict__["patch"]
        watch = self

        def patch(program, name, replacement):
            ident = id(replacement)
            if ident in watch.freed:
                watch.reused += 1
            weakref.finalize(replacement, watch._freed, watch.cell, ident)
            return original(program, name, replacement)

        program_class.patch = patch
        return original


#: How a failure of a cell that saw an id() reuse is labelled.
ID_REUSE_NOTE = "[a patched copy reused a freed copy's id(): run_fast memo defect, see README]"


class Sample:
    """One cell in one round: host times and the host-speed readings taken
    while it ran."""

    def __init__(self, wall_ns: int, setup_ns: int, readings: list[int]) -> None:
        self.wall_ns = wall_ns
        self.setup_ns = setup_ns
        self.readings = readings


class Round:
    """Timings and outcomes of one pass over a workload's cells."""

    def __init__(self, traced: bool) -> None:
        self.traced = traced
        self.attempted = 0
        self.elapsed_ns = 0
        #: set-up of the round itself (building the cell list)
        self.setup_ns = 0
        self.passes: dict[str, object] = {}
        self.outcomes: dict = {}
        self.samples: dict[str, Sample] = {}
        #: per cell, patched copies that reused a freed copy's id()
        self.id_reuse: dict[str, int] = {}
        #: every host-speed reading of the round
        self.readings: list[int] = []
        self.problems: list[tuple[str, str]] = []
        #: traced rounds only: corrected self time and calls per layer
        self.layers: dict[str, float] = {}
        self.calls: dict[str, int] = {}
        self.overhead_ns = 0.0
        self.spans: list = []

    @property
    def wall_ns(self) -> int:
        return sum(s.wall_ns for s in self.samples.values())


def run_round(args, cells, probe, speed, watch, traced: bool, index: int) -> Round:
    """Set up and run every cell once; wall time excludes set-up.

    Untraced rounds sample the host's speed while each cell runs; traced
    rounds only between cells, since the sampler's time would land in
    whichever layer it interrupted.
    """
    rnd = Round(traced)
    keep = probe.installed()
    probe.reset()
    if traced:
        for owner, attr, layer in layer_targets():
            probe.wrap(owner, attr, layer)
    start = time.perf_counter_ns()
    try:
        todo = cells.cells_for(
            args.workload, args.seed, args.scale, not args.freeze, Path(args.tmp) / f"round-{index}"
        )
        rnd.setup_ns = time.perf_counter_ns() - start
        rnd.attempted = len(todo)
        for cell in todo:
            rnd.passes[cell.name] = cell.passes
            first_reading = len(speed.readings)
            spent = speed.spent_ns
            watch.begin()
            try:
                t = time.perf_counter_ns()
                cell.setup()
                setup_ns = time.perf_counter_ns() - t
                # Earlier cells' garbage is collected here, not inside the
                # timed run of whichever cell happens to trigger collection.
                gc.collect()
                with probe.span("cells", cell.name) as span:
                    if traced:
                        cell.run()
                    else:
                        with speed:
                            cell.run()
            except Exception as exc:  # a failing cell is counted, never fatal
                traceback.print_exc(file=sys.stderr)
                rnd.problems.append((cell.name, f"raised {type(exc).__name__}: {exc}"))
                continue
            finally:
                rnd.id_reuse[cell.name] = watch.reused
            rnd.samples[cell.name] = Sample(
                span.wall_ns - (speed.spent_ns - spent),
                setup_ns + span.setup_ns,
                speed.readings[first_reading:],
            )
            if traced:
                # The host's speed between cells, so traced and untraced
                # rounds compare at the same speed (trace.overhead_pct).
                speed.sample_now(3)
            outcome = cell.outcome()
            rnd.outcomes[cell.name] = outcome
            rnd.problems += [(cell.name, p) for p in outcome.problems]
        rnd.problems += cells.cross_check(todo, rnd.outcomes)
    finally:
        if traced:
            left = probe.unwrap(keep)
            if left:
                rnd.problems.append(("trace", f"wrappers not removed: {', '.join(left)}"))
    if len(speed.readings) < hostspeed.MIN_READINGS:
        speed.sample_now(hostspeed.MIN_READINGS - len(speed.readings))
    rnd.readings = list(speed.readings)
    speed.readings.clear()
    rnd.elapsed_ns = time.perf_counter_ns() - start
    if traced:
        for layer in EXEC_LAYERS + SETUP_LAYERS:
            rnd.layers[layer] = probe.corrected_self_ns(layer)
            rnd.calls[layer] = probe.calls.get(layer, 0)
        rnd.overhead_ns = probe.cost_ns * sum(rnd.calls[layer] for layer in EXEC_LAYERS)
        rnd.spans = list(probe.spans)
    return rnd


def frozen_for(expected: dict, name: str, passes):
    """The frozen entry of a cell run at ``passes``, or None."""
    frozen = expected.get(name)
    return frozen if frozen is not None and frozen["passes"] == passes else None


def compare(frozen: dict, outcome) -> str:
    """First difference between ``outcome`` and a frozen cell, or ''."""
    for key, value in frozen["fields"].items():
        if outcome.fields.get(key) != value:
            return f"{key} = {outcome.fields.get(key)}, expected {value}"
    if outcome.digest != frozen["digest"]:
        return "result digest differs from the frozen result"
    return ""


def audit(args, rounds, expected) -> list[tuple[int, str, str]]:
    """Checks across rounds: frozen results (or, for cells without one, the
    same output every round), observer effect, and the trace's own sanity.
    Returns ``(round, cell, problem)``."""
    problems = []
    first: dict = {}
    for index, rnd in enumerate(rounds):
        problems += [(index, cell, p) for cell, p in rnd.problems]
        for name, outcome in rnd.outcomes.items():
            frozen = frozen_for(expected, name, rnd.passes[name])
            if frozen is not None:
                diff = compare(frozen, outcome)
                if diff:
                    problems.append((index, name, f"mismatch with frozen seed {args.seed}: {diff}"))
            else:
                seen = first.setdefault(name, (index, outcome))
                if seen[1].digest != outcome.digest:
                    problems.append(
                        (index, name, f"output differs from round {seen[0]} (same seed, same inputs)")
                    )
            if name.startswith("observed/") and name != "observed/export":
                twin = "fig12/" + name.split("/", 1)[1]
                frozen = frozen_for(expected, twin, rnd.passes[name])
                if frozen is not None and frozen["fields"] != outcome.fields:
                    problems.append((index, name, f"observer effect: differs from {twin}"))
        if rnd.traced:
            if args.workload in ("fig11", "fig12") and rnd.calls.get("machine.access"):
                problems.append(
                    (index, "trace", f"{rnd.calls['machine.access']} wrapped hierarchy calls; "
                     "the inlined memory path was expected to bypass them")
                )
            unattributed = unattributed_ns(rnd)
            if unattributed > MAX_UNATTRIBUTED * rnd.wall_ns:
                problems.append(
                    (index, "trace", f"unattributed {unattributed / 1e9:.3f} s is more than "
                     f"{MAX_UNATTRIBUTED:.0%} of traced wall {rnd.wall_ns / 1e9:.3f} s")
                )
    return [
        (i, cell, f"{p} {ID_REUSE_NOTE}" if rounds[i].id_reuse.get(cell) else p)
        for i, cell, p in problems
    ]


def unattributed_ns(rnd) -> float:
    return rnd.wall_ns - sum(rnd.layers[layer] for layer in EXEC_LAYERS) - rnd.overhead_ns


def per_cell(rounds, value) -> dict[str, list[float]]:
    """``value(round, sample)`` for every sample, grouped by cell."""
    out: dict[str, list[float]] = {}
    for rnd in rounds:
        for name, sample in rnd.samples.items():
            out.setdefault(name, []).append(value(rnd, sample))
    return out


def cell_readings(rnd, sample) -> list[int]:
    """The host-speed readings a cell sample is scaled by: those taken while
    it ran, or its round's when it ran too briefly to collect
    :data:`hostspeed.MIN_READINGS`."""
    return sample.readings if len(sample.readings) >= hostspeed.MIN_READINGS else rnd.readings


def median_sum(groups: dict[str, list[float]]) -> float:
    """Sum over cells of each cell's median sample."""
    return sum(statistics.median(values) for values in groups.values())


def import_samples(speed, samples: int = 5) -> list[tuple[int, list[int]]]:
    """Times to import the simulator, each in a fresh interpreter (an import
    happens once per process, so it is sampled this way), each with the
    host-speed readings taken right before and after it."""
    code = "import time; t = time.perf_counter_ns(); import cells; print(time.perf_counter_ns()-t)"
    out = []
    for _ in range(samples):
        first = len(speed.readings)
        speed.sample_now(3)
        ns = int(subprocess.run(
            [sys.executable, "-c", code], cwd=HERE, capture_output=True, text=True,
            timeout=60, check=True,
        ).stdout)
        speed.sample_now(3)
        out.append((ns, speed.readings[first:]))
    return out


def end_to_end(rounds, imports: list[tuple[int, list[int]]]) -> dict:
    """End-to-end metrics from the untraced rounds.

    Times are medians over rounds (over ``imports`` for the import of the
    simulator), summed over cells, and scaled to the reference host (see
    :mod:`hostspeed`): a cell sample by :func:`cell_readings`, set-up by its
    round's readings, an import by its own.  The clock times behind them are
    reported as ``*_clock_s``.
    """
    plain = [r for r in rounds if not r.traced]

    def exec_ref(rnd, sample):
        return hostspeed.scale(sample.wall_ns, cell_readings(rnd, sample))

    def setup(convert) -> float:
        groups = per_cell(plain, lambda rnd, s: convert(s.setup_ns, rnd.readings))
        groups["round"] = [convert(r.setup_ns, r.readings) for r in plain]
        groups["import"] = [convert(ns, readings) for ns, readings in imports]
        return median_sum(groups)

    def clock(ns, readings):
        return ns / 1e9

    exec_s = median_sum(per_cell(plain, exec_ref))
    instructions = sum(o.instructions for o in plain[0].outcomes.values())
    rss_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    readings = [x for r in plain for x in r.readings]
    return {
        "exec_s": (exec_s, "s"),
        "sim_mips": (instructions / exec_s / 1e6, "Minstr/s"),
        "setup_s": (setup(hostspeed.scale), "s"),
        "peak_rss_mb": (rss_kb / 1024, "MB"),
        "exec_clock_s": (median_sum(per_cell(plain, lambda r, s: s.wall_ns / 1e9)), "s"),
        "setup_clock_s": (setup(clock), "s"),
        "host_yardstick_ms": (hostspeed.reading_ns(readings) / 1e6, "ms"),
    }


def per_layer(rounds, probe, makers: int) -> dict:
    """Per-layer metrics: means over the traced rounds.

    Shares are of the traced wall time less the wrappers' own cost, so the
    layer shares and the unattributed share add up to 100 %.
    """
    traced = [r for r in rounds if r.traced]
    plain = [r for r in rounds if not r.traced]
    n = len(traced)
    wall = sum(r.wall_ns for r in traced)
    overhead = sum(r.overhead_ns for r in traced)
    measured = wall - overhead

    def mean_s(layer: str) -> float:
        return sum(r.layers[layer] for r in traced) / n / 1e9

    def calls(layer: str) -> float:
        return sum(r.calls[layer] for r in traced) / n

    def round_ref(rounds) -> float:
        return median_sum(per_cell(rounds, lambda r, s: hostspeed.scale(s.wall_ns, r.readings)))

    counts: dict[str, int] = {}
    for outcome in traced[0].outcomes.values():
        for key, value in outcome.counts.items():
            counts[key] = counts.get(key, 0) + value
    out: dict = {}
    for layer in EXEC_LAYERS:
        out[f"{layer}_s"] = (mean_s(layer), "s")
        out[f"{layer}_share"] = (100.0 * sum(r.layers[layer] for r in traced) / measured, "%")
    for layer in SETUP_LAYERS:
        out[f"{layer}_s"] = (mean_s(layer), "s")
    unattributed = sum(unattributed_ns(r) for r in traced)
    seq_s = mean_s("sequitur.extend_batch")
    out.update({
        "unattributed_s": (unattributed / n / 1e9, "s"),
        "unattributed_share": (100.0 * unattributed / measured, "%"),
        "trace.wall_s": (wall / n / 1e9, "s"),
        "trace.wrapper_overhead_s": (overhead / n / 1e9, "s"),
        "trace.wrapper_ns": (probe.cost_ns, "ns"),
        "trace.overhead_pct": (100.0 * (round_ref(traced) / round_ref(plain) - 1.0), "%"),
        "interp.instructions": (counts.get("instructions", 0), "count"),
        "interp.calls": (calls("interp.execute"), "count"),
        "fastpath.compile_calls": (calls("fastpath.compile"), "count"),
        "fastpath.makers_built": (makers, "count"),
        "machine.access_calls": (calls("machine.access"), "count"),
        "machine.demand_accesses": (counts.get("demand_accesses", 0), "count"),
        "machine.l1_miss_rate": (
            counts.get("l1_misses", 0) / max(1, counts.get("l1_accesses", 0)), "ratio"
        ),
        "machine.prefetch_accuracy": (
            counts.get("prefetch_useful", 0) / max(1, counts.get("prefetch_issued", 0)), "ratio"
        ),
        "machine.prefetches_issued": (counts.get("prefetch_issued", 0), "count"),
        "sequitur.tokens": (counts.get("traced_refs", 0), "count"),
        "sequitur.tokens_per_s": (counts.get("traced_refs", 0) / seq_s if seq_s else 0.0, "1/s"),
        "analysis.epochs": (calls("analysis.hot_streams"), "count"),
        "analysis.streams": (counts.get("streams", 0), "count"),
        "dfsm.states": (counts.get("dfsm_states", 0), "count"),
        "vulcan.patch_calls": (calls("vulcan.patch"), "count"),
        "vulcan.procs_patched": (counts.get("procs_patched", 0), "count"),
        "core.bursts": (calls("core.optimizer"), "count"),
        "tenancy.slices": (counts.get("slices", 0), "count"),
        "telemetry.events": (calls("telemetry.emit"), "count"),
        "tracing.ledger_calls": (calls("tracing.ledger"), "count"),
    })
    return out


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--scale", type=float, default=1.0)
    parser.add_argument("--freeze", action="store_true")
    parser.add_argument("--tmp", required=True)
    args = parser.parse_args(argv)

    import cells
    from repro.fastpath import compiler
    from repro.ir.program import Program

    watch = PatchWatch()
    original_patch = watch.install(Program)
    probe = Probe()
    speed = hostspeed.HostSpeed()
    if args.trace:
        probe.calibrate()
    for owner, attr, layer in setup_targets(cells):
        probe.wrap(owner, attr, layer, setup=True)

    expected_path = HERE / "expected" / f"seed{args.seed}.json"
    expected = (
        json.loads(expected_path.read_text())["cells"]
        if expected_path.is_file() and not args.freeze
        else {}
    )

    rounds: list[Round] = []
    start = time.perf_counter()
    while True:
        tracing = bool(args.trace) and len(rounds) % 2 == 1
        rnd = run_round(args, cells, probe, speed, watch, tracing, len(rounds))
        rounds.append(rnd)
        elapsed = time.perf_counter() - start
        need_traced = bool(args.trace) and len(rounds) < 2
        if args.freeze or (not need_traced and elapsed + rnd.elapsed_ns / 2e9 >= args.seconds):
            break
    probe.unwrap()
    Program.patch = original_patch
    imports = import_samples(speed)

    problems = audit(args, rounds, expected)
    first = rounds[0]
    traced = [r for r in rounds if r.traced]
    doc = {
        "workload": args.workload,
        "seed": args.seed,
        "rounds": len(rounds),
        "traced_rounds": len(traced),
        # every cell of every round, plus the audit of each traced round
        "attempted": sum(r.attempted for r in rounds) + len(traced),
        "failed": len({(i, cell) for i, cell, _ in problems}),
        "problems": [f"round {i} {cell}: {p}" for i, cell, p in problems],
        "frozen_cells": sum(1 for name in first.outcomes if name in expected),
        "repro_env": sorted(k for k in os.environ if k.startswith("REPRO_")),
        "round_wall_s": [r.wall_ns / 1e9 for r in rounds],
        "round_setup_s": [r.setup_ns / 1e9 for r in rounds],
        "import_s": [ns / 1e9 for ns, _ in imports],
        "round_yardstick_ms": [hostspeed.reading_ns(r.readings) / 1e6 for r in rounds],
        "cells": {
            name: {
                "passes": first.passes[name],
                "fields": outcome.fields,
                "digest": outcome.digest,
                "wall_s": [r.samples[name].wall_ns / 1e9 for r in rounds if name in r.samples],
                "setup_s": [r.samples[name].setup_ns / 1e9 for r in rounds if name in r.samples],
                "yardstick_ms": [
                    hostspeed.reading_ns(cell_readings(r, r.samples[name])) / 1e6
                    for r in rounds
                    if name in r.samples
                ],
                "id_reuse": [r.id_reuse.get(name, 0) for r in rounds],
            }
            for name, outcome in first.outcomes.items()
        },
        "end_to_end": end_to_end(rounds, imports),
        "per_layer": per_layer(rounds, probe, len(compiler._MAKERS)) if traced else {},
        # the first traced round's spans, in microseconds since worker start
        "spans": [
            [layer, name, (t0 - _T0_NS) / 1e3, (t1 - _T0_NS) / 1e3]
            for layer, name, t0, t1 in (traced[0].spans if traced else [])
        ],
    }
    print(json.dumps(doc))
    return 0


if __name__ == "__main__":
    sys.exit(main())
