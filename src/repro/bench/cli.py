"""Command-line entry point: ``repro-bench <artifact> [flags]``.

Regenerates the paper's figures and tables as text (Figures 4, 8, 11 and 12,
Tables 1 and 2, the Section 4.3/5.1 ablations and the extensions), and runs
the verification, tracing, tenancy and cache tools.  ``repro-bench
<artifact> --help`` lists the flags an artifact reads; it refuses every
other flag (exit 2, before anything runs or is created).  Each artifact
declares its flags, the jobs it reads and its render in :data:`ARTIFACTS`,
and every command resolves all of its jobs as one plan before it renders.

Verification: ``repro-bench verify`` runs the :mod:`repro.oracle` suite —
differential fuzzing of every production component against its reference
model, the metamorphic whole-run invariants and the golden trace corpus.
``--seed``/``--runs`` control the randomized sections; ``--update-golden``
re-records ``tests/golden/`` instead of diffing against it.  Exits non-zero
on any disagreement.

``--scale 0.5`` shrinks every workload's pass count for quick smoke runs;
``--workloads vpr,mcf`` restricts the set.

Resilience: ``--watchdog`` arms the prefetch watchdog (per-stream
deoptimization, :mod:`repro.resilience`) for every optimized run;
``--fault-seed N`` injects deterministic faults from that seed — runs must
complete with the failures contained and reported in telemetry.

Telemetry: ``--telemetry DIR`` streams every simulated run's event log
(``RunBegin``/``RunEnd`` delimit runs) into a chunk directory — sealed,
size-bounded, digest-tagged JSONL chunks plus a manifest (:mod:`repro.obs`),
bounded in memory, and a SIGKILLed run leaves a valid prefix.  It is the
only on-disk event format; ``cat DIR/chunk-*.jsonl`` is the whole log.
``--metrics run.json`` writes one metrics snapshot per (workload, level),
keyed ``workload/level`` and carrying the serialized optimizer summary.

Tracing (:mod:`repro.tracing`): ``repro-bench trace --out trace.json`` runs
every workload at ``--level`` (default ``dyn``) with span tracing enabled,
logs the events to ``--telemetry DIR`` (a temporary directory when absent)
and renders that log to ``--out``: Chrome trace-event JSON loadable in
``chrome://tracing`` or `ui.perfetto.dev <https://ui.perfetto.dev>`_ — one
process per run, threads for the run/epoch/analysis span tree, profiling
bursts and instant events — or, when ``--out`` ends in ``.pftrace``, a
Perfetto protobuf trace with the same tracks plus one per procedure.
``trace --from PATH`` renders an existing chunk directory (its valid prefix;
torn suffixes are reported and dropped) or monolithic trace JSON the same
way, so a live trace and a merged one are equal by construction.
``repro-bench explain`` prints each workload's cycle-attribution breakdown
(the Figure 11 decomposition, conservation-checked) and a per-stream prefetch
scorecard built from the lifecycle ledger; ``--stream s3`` (with a single
``--workloads`` entry) zooms into one stream's fate histogram, timeliness
distribution and watchdog verdicts.  ``--against orig`` diffs the
attribution tables of two levels instead, read from the result cache.
``--by-proc`` adds the per-procedure split of the same seven categories
(sums are conservation-checked against the totals).  ``explain --from PATH``
renders the run summaries embedded in a chunk directory or trace JSON
offline.  ``repro-bench status [run-dir]`` renders a supervised run's live
progress file (per-task state, instruction/cycle counters, hit/accuracy
EWMAs, ETA) whether the run is alive, finished, or dead.

Experiment engine (:mod:`repro.engine`): every simulated run is described by
a content-fingerprinted :class:`~repro.engine.spec.RunSpec` and memoized in
the on-disk result cache (default ``.repro-cache/``; override with
``--cache-dir`` or ``$REPRO_CACHE_DIR``, disable with ``--no-cache``).  A
warm rerun replays bit-identical results instead of simulating; the session
summary (hits/misses/stored) goes to **stderr** so stdout stays byte-for-byte
comparable between cold and warm runs.  ``--jobs N`` fans uncached runs out
over N worker processes — output is deterministic and identical to serial.
``repro-bench cache`` prints the store's stats (including a corrupt-entry
audit); ``repro-bench cache --clear`` empties it; ``repro-bench cache gc
--max-age-days D --max-size-mb M`` bounds it (old entries first, then
oldest-until-it-fits), and ``--dry-run`` reports the eviction set without
deleting anything.

Durability (:mod:`repro.durability`): ``--task-timeout S`` bounds each
task's wall-clock (stalled or crashed workers are SIGKILLed and retried with
backoff, resuming their own checkpoints); ``--checkpoint-every N`` sets the
checkpoint cadence in simulated instructions; ``--chaos-seed SEED`` arms the
deterministic chaos harness (worker kills, stalls, torn checkpoints, corrupt
result entries) — the run must still produce byte-identical output.  Any of
these flags routes the command's plan through the supervised executor, which
stores every finished run before moving on: in the result cache, or under
``--no-cache`` in a private store that retires with the run.  Running a
SIGKILLed command again therefore replays its finished runs and resumes the
rest from their checkpoints, with output byte-identical to a straight-through
run.  Checkpoints, ``status.json`` and private results live under
``<cache root>/run/`` (``--cache-dir`` moves it, with or without
``--no-cache``), and ``status`` lists every job of the command.  Runs
recorded through ``--telemetry``/``--metrics`` execute live and in-process,
outside the supervised executor, so those flags refuse any durability flag.

Tenancy (:mod:`repro.tenancy`): ``repro-bench tenancy --tenants
vpr:dyn,phaseshift:dyn`` interleaves several workloads on one shared
hierarchy (``--quantum`` instructions per round-robin slice, ``--sharing
shared|private-l1``) and prints the per-tenant scorecard plus the
cross-tenant pollution matrix, exact and reconciled; ``--watchdog`` and
``--fault-seed`` apply to every tenant.  ``repro-bench ablation-tenancy``
runs the shared-L2 ablation: vpr at nopref/dyn/dyn+watchdog against the
phaseshift thrasher, its co-runs and their solo baselines.  A co-run is a
job like a single run: it memoizes in the same result cache and fans out
over ``--jobs``.
"""

from __future__ import annotations

import argparse
import sys
from dataclasses import dataclass, replace
from pathlib import Path
from typing import Callable, Optional, Sequence

from repro.bench import figures
from repro.core.config import OptimizerConfig
from repro.durability.runner import DEFAULT_CHECKPOINT_EVERY
from repro.engine.cache import ResultStore, default_cache_root
from repro.engine.levels import level_names
from repro.resilience import FaultPlan, WatchdogConfig
from repro.telemetry.session import TelemetryRecorder
from repro.tenancy import ablation as tenancy_ablation
from repro.tracing import explain
from repro.workloads import presets


def _workloads(text: str) -> list[str]:
    """``--workloads vpr,mcf`` -> the named presets (all when empty)."""
    names = [n for n in text.split(",") if n] or presets.names()
    unknown = set(names) - set(presets.names())
    if unknown:
        raise argparse.ArgumentTypeError(f"unknown workloads: {sorted(unknown)}")
    return names


def _level(name: str) -> str:
    if name not in level_names():
        raise argparse.ArgumentTypeError(
            f"unknown level {name!r}; known: {', '.join(level_names())}"
        )
    return name


def _tenants(text: str) -> list[tuple[str, str]]:
    """``--tenants vpr:dyn,phaseshift:dyn`` -> ``[(workload, level), ...]``."""
    known = set(presets.names()) | {"phaseshift"}
    tenants = []
    for part in filter(None, map(str.strip, text.split(","))):
        name, sep, level = part.partition(":")
        if not sep or not name or not level:
            raise argparse.ArgumentTypeError(f"bad tenant {part!r}; expected workload:level")
        if name not in known:
            raise argparse.ArgumentTypeError(
                f"unknown tenant workload {name!r}; known: {sorted(known)}"
            )
        tenants.append((name, _level(level)))
    if not tenants:
        raise argparse.ArgumentTypeError("--tenants needs at least one workload:level entry")
    return tenants


#: Every flag an artifact may declare, with its ``add_argument`` keywords.
OPTIONS: dict[str, dict] = {
    "subcommand": dict(nargs="?", help="optional subcommand (gc)"),
    "run_dir": dict(
        nargs="?", help="run directory (default: the result cache's run/ directory)"
    ),
    "--workloads": dict(
        type=_workloads, default="", help="comma-separated subset of benchmarks"
    ),
    "--scale": dict(type=float, default=1.0, help="workload pass-count scale"),
    "--jobs": dict(
        type=int,
        default=1,
        metavar="N",
        help="run uncached simulations across N worker processes (default 1)",
    ),
    "--cache-dir": dict(
        metavar="DIR",
        help="result cache directory (default: $REPRO_CACHE_DIR or .repro-cache)",
    ),
    "--no-cache": dict(
        action="store_true", help="neither replay from nor write to the result cache"
    ),
    "--clear": dict(
        action="store_true", help="delete every stored result instead of printing stats"
    ),
    "--max-age-days": dict(
        type=float, metavar="D", help="gc: evict entries not written in the last D days"
    ),
    "--max-size-mb": dict(
        type=float,
        metavar="M",
        help="gc: evict oldest entries until the store fits in M MiB",
    ),
    "--dry-run": dict(
        action="store_true",
        help="gc: report what would be evicted without deleting anything",
    ),
    "--task-timeout": dict(
        type=float,
        metavar="S",
        help="supervised executor: SIGKILL and retry any task running/stalled "
        "past S seconds (default 600 once engaged)",
    ),
    "--checkpoint-every": dict(
        type=int,
        metavar="N",
        help="supervised executor: checkpoint each run every N simulated "
        f"instructions (default {DEFAULT_CHECKPOINT_EVERY} once engaged)",
    ),
    "--chaos-seed": dict(
        type=int,
        metavar="SEED",
        help="deterministically inject engine-level faults (worker kills, "
        "stalls, torn checkpoints, corrupt result entries) from SEED; "
        "output must stay byte-identical",
    ),
    "--tenants": dict(
        type=_tenants,
        default="vpr:dyn,phaseshift:dyn",
        metavar="W:L,...",
        help="comma-separated workload:level tenant mix (default vpr:dyn,phaseshift:dyn)",
    ),
    "--quantum": dict(
        type=int,
        default=4096,
        metavar="N",
        help="round-robin slice length in instructions (default 4096)",
    ),
    "--sharing": dict(
        choices=["shared", "private-l1"],
        default="private-l1",
        help="cache sharing mode (default private-l1: per-tenant L1s, shared L2)",
    ),
    "--telemetry": dict(
        metavar="DIR",
        help="stream every run's telemetry events into this fresh directory as "
        "sealed, digest-tagged JSONL chunks (the event log that trace --from "
        "and explain --from read)",
    ),
    "--metrics": dict(
        metavar="OUT.JSON",
        help="write per-run metrics snapshots (keyed workload/level) to this JSON file",
    ),
    "--miss-sample": dict(
        type=int,
        default=64,
        metavar="N",
        help="emit one CacheMiss event per N demand misses (default 64)",
    ),
    "--prefetch-sample": dict(
        type=int,
        default=32,
        metavar="N",
        help="emit one prefetch life-cycle event per N occurrences (default 32; 1 = all)",
    ),
    "--watchdog": dict(
        action="store_true",
        help="arm the prefetch watchdog (per-stream deoptimization) for every optimized run",
    ),
    "--fault-seed": dict(
        type=int,
        metavar="SEED",
        help="deterministically inject optimizer faults from SEED (runs must still complete)",
    ),
    "--out": dict(
        metavar="TRACE.JSON|TRACE.PFTRACE",
        default="trace.json",
        help="output path of the rendered trace; Perfetto protobuf when it ends "
        "in .pftrace, else Chrome trace-event JSON (default trace.json)",
    ),
    "--level": dict(type=_level, default="dyn", help="measurement level to run (default dyn)"),
    "--stream": dict(
        metavar="ID",
        help="zoom into one stream's scorecard (id from the summary table)",
    ),
    "--from": dict(
        dest="from_path",
        metavar="PATH",
        help="read an existing chunk directory or monolithic trace JSON instead "
        "of simulating (trace: render to --out; explain: render the embedded "
        "run summaries)",
    ),
    "--by-proc": dict(
        action="store_true",
        help="record per-procedure cycle attribution (explain renders the "
        "per-proc table; trace embeds it in summaries)",
    ),
    "--against": dict(
        type=_level,
        metavar="LEVEL",
        help="diff --level's attribution against this level (e.g. orig)",
    ),
    "--seed": dict(
        type=int,
        default=0,
        help="seed for the randomized differential sections (default 0)",
    ),
    "--runs": dict(
        type=int,
        default=25,
        metavar="N",
        help="generated inputs per randomized section (default 25)",
    ),
    "--update-golden": dict(
        action="store_true",
        help="re-record the golden corpus instead of diffing against it",
    ),
    "--golden-dir": dict(
        metavar="DIR", help="golden corpus directory (default: tests/golden of this repo)"
    ),
    "--skip-golden": dict(
        action="store_true", help="run only the differential and metamorphic sections"
    ),
}

#: The flags that engage the supervised executor.
DURABILITY_FLAGS = ("--chaos-seed", "--task-timeout", "--checkpoint-every")
#: The flags of an artifact whose jobs run as an engine plan.
PLAN_FLAGS = ("--jobs", "--cache-dir", "--no-cache", *DURABILITY_FLAGS)
#: The flags that record runs live into an event log and metrics snapshots.
RECORDING_FLAGS = ("--telemetry", "--metrics", "--miss-sample", "--prefetch-sample")
#: The flags that set the runs' optimizer configuration.
OPT_FLAGS = ("--watchdog", "--fault-seed")
FIGURE_FLAGS = ("--workloads", "--scale", *PLAN_FLAGS, *RECORDING_FLAGS, *OPT_FLAGS)


@dataclass(frozen=True)
class Artifact:
    """One artifact: the flags it reads, its render, and the jobs the render
    reads from the command's :class:`~repro.bench.figures.ResultCache`,
    which resolves them as one plan first.  ``jobs`` and ``render`` take the
    parsed flags, with the cache as ``args.cache``; a render prints and may
    return an exit status."""

    help: str
    render: Callable[[argparse.Namespace], Optional[int]]
    flags: tuple[str, ...] = ()
    jobs: Callable[[argparse.Namespace], list] = lambda args: []


def _figure4(args) -> None:
    print("Figure 4: Sequitur grammar for w=" + figures.EXAMPLE_STRING)
    print(figures.figure4_grammar())


def _figure8(args) -> None:
    dfsm = figures.figure8_dfsm()
    print(f"Figure 8: prefix-match DFSM for v={figures.EXAMPLE_STREAMS[0]}, "
          f"w={figures.EXAMPLE_STREAMS[1]} (headLen=3)")
    print(f"states={dfsm.num_states} transitions={dfsm.num_transitions}")
    for state in range(dfsm.num_states):
        completions = dfsm.completions.get(state, ())
        suffix = f"  completes {completions}" if completions else ""
        print(f"  {state}: {dfsm.describe(state)}{suffix}")


def _table1(args) -> None:
    print(figures.TABLE1.render(figures.table1_rows()))


def _tables(args) -> None:
    """The deterministic worked examples, in bench_tables.txt order."""
    _figure4(args)
    print()
    _table1(args)
    print()
    _figure8(args)


def _figure12(args) -> None:
    print(figures.FIGURE12.render(figures.figure12_rows(args.cache, args.workloads)))
    quality = figures.figure12_quality_rows(args.cache, args.workloads, levels=("seq", "dyn"))
    print(figures.FIGURE12_QUALITY.render(quality))


def _each_workload(table, rows) -> Callable[[argparse.Namespace], None]:
    """A render that prints ``table`` over ``rows(cache, name)`` per workload."""

    def render(args) -> None:
        for name in args.workloads:
            print(table.render(rows(args.cache, name), name=name))

    return render


def _render_trace(path, out: str, error) -> tuple[str, str]:
    """Render a chunk log or monolithic trace JSON to ``out``.

    The one render path of ``trace``, live or ``--from``: a chunk directory
    loads its valid prefix (torn suffixes are reported and dropped) and is
    laid out as a Chrome trace document; a trace JSON is validated.  The
    document is written as Chrome JSON, or as Perfetto protobuf when
    ``out`` ends in ``.pftrace``.  Returns what was read and what was
    written, for the caller's report.
    """
    import json

    from repro.errors import ConfigError
    from repro.obs.chunks import is_chunk_dir, load_chunk_events
    from repro.obs.perfetto import parse_packet_count, perfetto_trace
    from repro.obs.stream import split_runs
    from repro.telemetry.export import (
        chrome_trace_document,
        load_chrome_trace,
        write_trace_document,
    )

    try:
        if is_chunk_dir(path):
            events, load = load_chunk_events(path)
            for note in load.notes:
                print(f"  dropped: {note}", file=sys.stderr)
            document = chrome_trace_document(split_runs(events), summaries=load.summaries)
            state = "complete" if load.complete else f"prefix ({load.dropped} entries dropped)"
            source = f"{load.chunks} chunks / {len(load.records)} records [{state}]"
        else:
            document = load_chrome_trace(path)
            source = f"{len(document['traceEvents'])} trace entries"
        if out.endswith(".pftrace"):
            data = perfetto_trace(document)
            Path(out).write_bytes(data)
            written = f"perfetto trace written to {out} ({parse_packet_count(data)} packets)"
        else:
            write_trace_document(document, out)
            written = f"chrome trace written to {out} ({len(document['traceEvents'])} entries)"
    except (ConfigError, OSError, json.JSONDecodeError) as exc:
        error(f"cannot render {path}: {exc}")
    return source, written


def _trace(args) -> int:
    import tempfile

    from repro.bench.runner import run_level
    from repro.errors import ConfigError
    from repro.obs.chunks import StreamingTraceSink
    from repro.telemetry.session import TelemetrySession

    if args.from_path is not None:
        source, written = _render_trace(args.from_path, args.out, args.error)
        print(f"read {source} from {args.from_path}; {written}")
        return 0
    with tempfile.TemporaryDirectory(prefix="repro-trace-") as tmp:
        log_dir = args.telemetry or Path(tmp) / "log"
        try:
            sink = StreamingTraceSink(log_dir)
        except (ConfigError, OSError) as exc:
            args.error(str(exc))
        try:
            for name in args.workloads:
                before = sink.records_total
                session = TelemetrySession(
                    sinks=[sink],
                    miss_sample_every=args.miss_sample,
                    prefetch_sample_every=args.prefetch_sample,
                    tracing=True,
                    # A kept log records the by-proc split for explain --from.
                    proc_attribution=args.by_proc or args.telemetry is not None,
                )
                result = run_level(
                    name, args.level, opt=args.cache.opt,
                    passes=args.cache.passes_for(name), telemetry=session,
                )
                print(
                    f"  traced {name}/{args.level}: {result.cycles} cycles, "
                    f"{sink.records_total - before} events"
                )
        finally:
            sink.close()
        _source, written = _render_trace(log_dir, args.out, args.error)
    print(f"{written}; open in ui.perfetto.dev or chrome://tracing")
    if args.telemetry:
        print(f"event log kept in {args.telemetry} (repro-bench trace --from <dir> renders it)")
    return 0


def _explain_jobs(args) -> list:
    """``explain``'s mode rules, then its jobs: both sides of each
    ``--against`` diff.  The other modes explain live runs or a log."""
    if args.from_path is not None and (args.stream is not None or args.against is not None):
        args.error("--from renders stored summaries; it cannot combine "
                   "with --stream or --against")
    if args.against is None:
        if _durable(args):
            args.error(f"explain does not take {', '.join(_durable(args))} without --against")
        if args.stream is not None and len(args.workloads) != 1:
            args.error("--stream needs a single workload (use --workloads <name>)")
        return []
    if args.stream is not None:
        args.error("--against diffs whole levels; it cannot combine with --stream")
    return figures.ladder_jobs(args.cache, args.workloads, (args.against, args.level))


def _explain(args) -> int:
    from repro.errors import ConfigError

    if args.from_path is not None:
        try:
            explanations = explain.offline_explanations(args.from_path)
        except ConfigError as exc:
            args.error(str(exc))
        for exp in explanations:
            print(explain.render_explanation(exp))
            print()
        return 0
    if args.against is not None:
        for name in args.workloads:
            sides = (args.cache.get(name, args.against), args.cache.get(name, args.level))
            print(explain.render_level_diff(explain.diff_levels(*sides)))
            print()
        return 0
    status = 0
    for name in args.workloads:
        exp = explain.explain_level(
            name,
            args.level,
            opt=args.cache.opt,
            passes=args.cache.passes_for(name),
            by_proc=args.by_proc,
        )
        print(explain.render_explanation(exp, stream=args.stream))
        print()
        if exp.mismatches:
            status = 1
    return status


def _durable(args) -> list[str]:
    """The durability flags given on the command line."""
    return [flag for flag in DURABILITY_FLAGS
            if getattr(args, flag[2:].replace("-", "_")) is not None]


def _cache_root(args) -> Path:
    """The cache root: ``--cache-dir``, else ``$REPRO_CACHE_DIR`` or the
    default.  Supervised runs keep their run directory under it, with or
    without ``--no-cache``."""
    return Path(args.cache_dir) if args.cache_dir is not None else default_cache_root()


def _durability_policy(args):
    """Build the DurabilityPolicy the flags ask for, or None for the plain path.

    Any durability flag engages the supervised executor; absent all of them
    the engine keeps its zero-overhead direct path.  The stall deadline
    tracks the task timeout but never exceeds 10s — a live worker heartbeats
    every quarter second, so silence is a stall long before it is a timeout.
    """
    if not _durable(args):
        return None
    from repro.durability import ChaosPlan, DurabilityPolicy, SupervisorConfig

    task_timeout = args.task_timeout if args.task_timeout is not None else 600.0
    return DurabilityPolicy(
        run_root=_cache_root(args) / "run",
        checkpoint_every=(
            args.checkpoint_every
            if args.checkpoint_every is not None
            else DEFAULT_CHECKPOINT_EVERY
        ),
        supervisor=SupervisorConfig(
            task_timeout=task_timeout,
            stall_timeout=min(10.0, task_timeout),
        ),
        chaos=ChaosPlan(seed=args.chaos_seed) if args.chaos_seed is not None else None,
    )


def _verify(args) -> int:
    from repro.oracle import golden as golden_corpus
    from repro.oracle.verify import run_verify

    if args.update_golden:
        # Recording must freeze what the simulator *does*, never a replay.
        written = golden_corpus.record_corpus(
            args.golden_dir, jobs=args.jobs, durability=args.cache.durability
        )
        for path in written:
            print(f"recorded {path}")
        print(f"golden corpus updated ({len(written)} runs)")
        return 0
    report = run_verify(
        seed=args.seed,
        runs=args.runs,
        golden_dir=args.golden_dir,
        include_golden=not args.skip_golden,
        progress=lambda message: print(f"  .. {message}"),
        store=args.cache.store,
        jobs=args.jobs,
        durability=args.cache.durability,
    )
    print(report.format())
    return 0 if report.ok else 1


def _status(args) -> int:
    """``repro-bench status [run-dir]``: render a supervised run's progress.

    Works identically on a run that is still executing, one that finished,
    and one whose process died — the file's age distinguishes them.
    """
    from repro.errors import ConfigError
    from repro.obs.status import read_status, render_status

    run_dir = args.run_dir if args.run_dir is not None else _cache_root(args) / "run"
    try:
        doc = read_status(run_dir)
    except ConfigError as exc:
        print(str(exc), file=sys.stderr)
        return 1
    print(render_status(doc))
    return 0


def _cache(args) -> int:
    """``repro-bench cache``: inspect, clear or garbage-collect the store."""
    store = args.cache.store
    if args.subcommand == "gc":
        if args.max_age_days is None and args.max_size_mb is None:
            args.error("cache gc needs --max-age-days and/or --max-size-mb")
        report = store.gc(
            max_age_days=args.max_age_days,
            max_size_mb=args.max_size_mb,
            dry_run=args.dry_run,
        )
        verb = "would evict" if args.dry_run else "evicted"
        print(
            f"result cache gc: {report['evicted']} entries {verb} "
            f"({report['bytes_freed']} bytes), "
            f"{report['entries']} entries / {report['bytes']} bytes "
            f"{'would ' if args.dry_run else ''}remain ({store.root})"
        )
        return 0
    if args.subcommand is not None:
        args.error(f"unknown cache subcommand {args.subcommand!r} (known: gc)")
    if args.clear:
        removed = store.clear()
        print(f"result cache cleared: {removed} entries removed ({store.root})")
        return 0
    stats = store.stats()
    print(f"result cache at {stats['root']}")
    print(f"  entries {stats['entries']}")
    print(f"  bytes   {stats['bytes']}")
    print(f"  corrupt {stats['corrupt']}")
    return 0


def _tenancy_plan(args):
    from repro.tenancy import TenantPlan, TenantSpec

    cache = args.cache
    return TenantPlan(
        tenants=tuple(
            TenantSpec(name, level, passes=cache.passes_for(name), opt=cache.opt)
            for name, level in args.tenants
        ),
        quantum=args.quantum,
        sharing=args.sharing,
    )


def _tenancy(args) -> int:
    """``repro-bench tenancy``: one co-run, scorecard + pollution matrix."""
    from repro.tenancy.scorecard import render_scorecard

    result = args.cache.result(_tenancy_plan(args))
    print(render_scorecard(result))
    problems = tenancy_ablation.check_result(result)
    for problem in problems:
        print(f"RECONCILIATION FAILURE: {problem}", file=sys.stderr)
    return 1 if problems else 0


#: Every artifact, in ``--help`` order.
ARTIFACTS: dict[str, Artifact] = {
    "figure4": Artifact("Figure 4: Sequitur grammar example", _figure4),
    "table1": Artifact("Table 1: analysis worked example", _table1),
    "figure8": Artifact("Figure 8: prefix-match DFSM example", _figure8),
    "figure11": Artifact(
        "Figure 11: profiling/analysis overheads",
        lambda args: print(
            figures.FIGURE11.render(figures.figure11_rows(args.cache, args.workloads))
        ),
        FIGURE_FLAGS,
        lambda args: figures.ladder_jobs(
            args.cache, args.workloads, ("orig", "base", "prof", "hds")
        ),
    ),
    "figure12": Artifact(
        "Figure 12: prefetching impact",
        _figure12,
        FIGURE_FLAGS,
        lambda args: figures.ladder_jobs(
            args.cache, args.workloads, ("orig", "nopref", "seq", "dyn")
        ),
    ),
    "table2": Artifact(
        "Table 2: per-cycle characterization",
        lambda args: print(
            figures.TABLE2.render(figures.table2_rows(args.cache, args.workloads))
        ),
        FIGURE_FLAGS,
        lambda args: figures.ladder_jobs(args.cache, args.workloads, ("dyn",)),
    ),
    "ablation-headlen": Artifact(
        "Section 4.3 ablation: prefix length 1/2/3",
        _each_workload(figures.HEADLEN, figures.ablation_headlen),
        ("--workloads", "--scale", *PLAN_FLAGS),
        lambda args: [
            job for name in args.workloads for job in figures.headlen_jobs(args.cache, name)
        ],
    ),
    "ablation-hwpref": Artifact(
        "Section 5.1 ablation: stride/Markov baselines",
        _each_workload(figures.HWPREF, figures.ablation_hwpref),
        ("--workloads", "--scale", *PLAN_FLAGS),
        lambda args: [
            job for name in args.workloads for job in figures.hwpref_jobs(args.cache, name)
        ],
    ),
    "ablation-watchdog": Artifact(
        "prefetch watchdog on a phase-shift workload",
        lambda args: print(
            figures.WATCHDOG.render(figures.ablation_watchdog(args.cache, args.fault_seed))
        ),
        ("--scale", *PLAN_FLAGS, "--fault-seed"),
        lambda args: list(figures.watchdog_jobs(args.cache, args.fault_seed).values()),
    ),
    "ablation-tenancy": Artifact(
        "shared-L2 tenancy ablation",
        lambda args: print(
            tenancy_ablation.ABLATION.render(tenancy_ablation.ablation_tenancy(args.cache))
        ),
        ("--scale", "--jobs", "--cache-dir", "--no-cache"),
        lambda args: tenancy_ablation.tenancy_ablation_jobs(args.cache),
    ),
    "tenancy": Artifact(
        "co-run tenants on one shared hierarchy",
        _tenancy,
        ("--tenants", "--quantum", "--sharing", "--scale", "--cache-dir", "--no-cache",
         *OPT_FLAGS),
        lambda args: [_tenancy_plan(args)],
    ),
    "tables": Artifact(
        "the worked examples (figure4, table1, figure8): bench_tables.txt", _tables
    ),
    "trace": Artifact(
        "render a Chrome or Perfetto trace of traced runs",
        _trace,
        ("--workloads", "--scale", "--level", "--out", "--from", "--by-proc",
         "--telemetry", "--miss-sample", "--prefetch-sample", *OPT_FLAGS),
    ),
    "explain": Artifact(
        "cycle attribution and per-stream prefetch scorecards",
        _explain,
        ("--workloads", "--scale", "--level", "--stream", "--from", "--by-proc",
         "--against", *PLAN_FLAGS, *OPT_FLAGS),
        _explain_jobs,
    ),
    "status": Artifact(
        "render a supervised run's status.json", _status, ("run_dir", "--cache-dir")
    ),
    "verify": Artifact(
        "differential, metamorphic and golden-corpus checks",
        _verify,
        ("--seed", "--runs", "--update-golden", "--golden-dir", "--skip-golden",
         *PLAN_FLAGS),
    ),
    "cache": Artifact(
        "result cache stats, --clear and gc",
        _cache,
        ("subcommand", "--cache-dir", "--clear", "--max-age-days", "--max-size-mb",
         "--dry-run"),
    ),
}


def _compose(summary: str, parts: Sequence[str], jobs=None, refuses=()) -> Artifact:
    """An artifact that renders ``parts`` in order from one plan: their
    flags less ``refuses``, and their jobs unless ``jobs`` lists them."""
    members = [ARTIFACTS[part] for part in parts]

    def render(args) -> None:
        for member in members:
            member.render(args)

    return Artifact(
        summary,
        render,
        tuple(dict.fromkeys(f for m in members for f in m.flags if f not in refuses)),
        jobs or (lambda args: [job for m in members for job in m.jobs(args)]),
    )


ARTIFACTS["figures"] = _compose(
    "Figures 11 and 12 and Table 2 from one grid",
    ("figure11", "figure12", "table2"),
    lambda args: figures.ladder_jobs(args.cache, args.workloads, figures.FIGURE_LEVELS),
)
# The ablations cannot record: metrics are keyed workload/level, so the
# three headLen dyn runs would collide.
ARTIFACTS["all"] = _compose(
    "every paper artifact and the watchdog ablation",
    ("figure4", "table1", "figure8", "figures", "ablation-headlen", "ablation-hwpref",
     "ablation-watchdog"),
    refuses=RECORDING_FLAGS,
)


def _print_cache_summary(store: Optional[ResultStore]) -> None:
    """Session hit/miss summary on stderr (stdout stays cold/warm-identical)."""
    if store is not None and (store.hits or store.misses or store.stored):
        print(store.summary_line(), file=sys.stderr)


def main(argv: Optional[Sequence[str]] = None) -> int:
    """CLI entry point; returns a process exit code."""
    parser = argparse.ArgumentParser(prog="repro-bench", description=__doc__)
    commands = parser.add_subparsers(dest="artifact", metavar="artifact", required=True)
    parsers = {}
    for name, artifact in ARTIFACTS.items():
        parsers[name] = commands.add_parser(name, help=artifact.help, description=artifact.help)
        for flag in artifact.flags:
            parsers[name].add_argument(flag, **OPTIONS[flag])
    # Parsing starts from every flag's default, so the flags an artifact
    # does not declare read as not given.
    every = argparse.ArgumentParser()
    for flag, keywords in OPTIONS.items():
        every.add_argument(flag, **keywords)
    args, extra = parser.parse_known_args(argv, every.parse_args([]))
    artifact = ARTIFACTS[args.artifact]
    args.error = parsers[args.artifact].error
    if extra:
        args.error(f"{args.artifact} does not take {' '.join(extra)}")
    if args.jobs < 1:
        args.error("--jobs must be >= 1")
    if args.task_timeout is not None and args.task_timeout <= 0:
        args.error("--task-timeout must be > 0")
    if args.checkpoint_every is not None and args.checkpoint_every < 1:
        args.error("--checkpoint-every must be >= 1")
    # trace logs its own events; the artifacts that take --metrics record
    # through the shared recorder, whose sink refuses a used --telemetry
    # directory before any run starts.
    recording = "--metrics" in artifact.flags and bool(args.telemetry or args.metrics)
    if recording and _durable(args):
        # A recorded run executes live and in-process, never through the
        # supervised executor, so these flags would be silently ignored.
        args.error(
            f"{', '.join(_durable(args))} cannot combine with "
            f"{'--telemetry' if args.telemetry else '--metrics'}: recorded runs "
            "execute live, outside the supervised executor"
        )
    if args.metrics:
        try:
            # Fail fast: a bad path should not surface minutes into a run.
            open(args.metrics, "a", encoding="utf-8").close()
        except OSError as exc:
            args.error(f"cannot write {args.metrics}: {exc}")
    recorder = None
    if recording:
        from repro.errors import ConfigError

        try:
            recorder = TelemetryRecorder(
                events_dir=args.telemetry,
                metrics_path=args.metrics,
                miss_sample_every=args.miss_sample,
                prefetch_sample_every=args.prefetch_sample,
            )
        except (ConfigError, OSError) as exc:
            args.error(str(exc))
    opt = OptimizerConfig()
    if args.watchdog:
        opt = replace(opt, watchdog=WatchdogConfig())
    if args.fault_seed is not None:
        opt = replace(opt, faults=FaultPlan(seed=args.fault_seed))
    store = None if args.no_cache else ResultStore(_cache_root(args))
    args.cache = figures.ResultCache(
        opt=opt,
        passes_scale=args.scale,
        recorder=recorder,
        store=store,
        jobs=args.jobs,
        durability=_durability_policy(args),
    )
    args.cache.warm(artifact.jobs(args))
    status = artifact.render(args)
    if recorder is not None:
        recorder.close()
        if args.telemetry:
            print(f"telemetry events written to {args.telemetry}")
        if args.metrics:
            print(f"metrics snapshots written to {args.metrics}")
    _print_cache_summary(store)
    return status or 0


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
