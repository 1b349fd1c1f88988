"""Command-line entry point: ``repro-bench <artifact>``.

Regenerates the paper's figures and tables as text::

    repro-bench figure4            # Sequitur grammar example
    repro-bench table1             # analysis worked example
    repro-bench figure8            # prefix-match DFSM example
    repro-bench figure11           # profiling/analysis overheads
    repro-bench figure12           # prefetching impact
    repro-bench table2             # per-cycle characterization
    repro-bench ablation-headlen   # prefix length 1/2/3
    repro-bench ablation-hwpref    # stride/Markov baselines
    repro-bench ablation-watchdog  # prefetch watchdog on a phase-shift workload
    repro-bench tables             # the deterministic worked examples (figure4,
                                   # table1, figure8) — the bench_tables.txt source
    repro-bench all

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
attribution tables of two levels instead — both sides run as one plan, so
they replay from the result cache when warm and take ``--jobs`` and the
durability flags.  ``--by-proc`` adds the per-procedure split of the same
seven categories (sums are conservation-checked against the totals).
``explain --from PATH`` renders the run summaries embedded in a chunk
directory or trace JSON offline.  ``repro-bench status [run-dir]`` renders a
supervised run's live progress file (per-task state, instruction/cycle
counters, hit/accuracy EWMAs, ETA) whether the run is alive, finished, or
dead.

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
these flags routes execution through the supervised executor, which stores
every finished run before moving on: in the result cache, or under
``--no-cache`` in a private store that retires with the run.  Running a
SIGKILLed command again therefore replays its finished runs and resumes the
rest from their checkpoints, with output byte-identical to a straight-through
run.  Checkpoints, ``status.json`` and private results live under
``<cache root>/run/`` (``--cache-dir`` moves it, with or without
``--no-cache``); ``figures`` and ``all`` run the Figure 11/12 and Table 2
grid as one plan, so ``status`` lists all of it.  The supervised executor
runs plans of single runs only: runs recorded through
``--telemetry``/``--metrics`` execute live and in-process, so those flags
refuse any durability flag, and ``trace``, ``explain`` (without
``--against``), ``tenancy`` and ``ablation-tenancy`` refuse them outright.

Tenancy (:mod:`repro.tenancy`): ``repro-bench tenancy --tenants
vpr:dyn,phaseshift:dyn`` interleaves several workloads on one shared
hierarchy (``--quantum`` instructions per round-robin slice, ``--sharing
shared|private-l1``) and prints the per-tenant scorecard plus the
cross-tenant pollution matrix, exact and reconciled.  ``repro-bench
ablation-tenancy`` runs the shared-L2 ablation: vpr at nopref/dyn/
dyn+watchdog against the phaseshift thrasher, its co-runs and their solo
baselines in one plan.  ``--watchdog`` and ``--fault-seed`` apply to every
tenant.  A co-run is a job like a single run: it memoizes in the same result
cache and fans out over ``--jobs``.  Co-runs record no telemetry, so both
artifacts refuse ``--telemetry`` and ``--metrics``.
"""

from __future__ import annotations

import argparse
import sys
from dataclasses import replace
from pathlib import Path
from typing import Optional, Sequence

from repro.bench import figures
from repro.bench.figures import ResultCache
from repro.bench.reporting import Ratio, format_table
from repro.core.config import OptimizerConfig
from repro.durability.runner import DEFAULT_CHECKPOINT_EVERY
from repro.engine.cache import ResultStore, default_cache_root
from repro.resilience import FaultPlan, WatchdogConfig
from repro.telemetry.session import TelemetryRecorder
from repro.workloads import presets
from repro.workloads.phaseshift import PhaseShiftParams


def _print_figure4() -> None:
    print("Figure 4: Sequitur grammar for w=" + figures.EXAMPLE_STRING)
    print(figures.figure4_grammar())


def _print_table1() -> None:
    rows = figures.table1_rows()
    print(
        format_table(
            ["rule", "word", "length", "index", "uses", "coldUses", "heat", "hot"],
            [[r[k] for k in ("rule", "word", "length", "index", "uses", "coldUses", "heat", "hot")] for r in rows],
            title="Table 1: hot data stream analysis worked example (H=8, len 2..7)",
        )
    )


def _print_figure8() -> None:
    dfsm = figures.figure8_dfsm()
    print(f"Figure 8: prefix-match DFSM for v={figures.EXAMPLE_STREAMS[0]}, "
          f"w={figures.EXAMPLE_STREAMS[1]} (headLen=3)")
    print(f"states={dfsm.num_states} transitions={dfsm.num_transitions}")
    for state in range(dfsm.num_states):
        completions = dfsm.completions.get(state, ())
        suffix = f"  completes {completions}" if completions else ""
        print(f"  {state}: {dfsm.describe(state)}{suffix}")


def _print_figure11(cache: ResultCache, names: Sequence[str]) -> None:
    rows = figures.figure11_rows(cache, names)
    print(
        format_table(
            ["benchmark", "Base %", "Prof %", "Hds %"],
            [[r["benchmark"], r["base_pct"], r["prof_pct"], r["hds_pct"]] for r in rows],
            title="Figure 11: overhead of online profiling and analysis",
        )
    )


def _print_figure12(cache: ResultCache, names: Sequence[str]) -> None:
    rows = figures.figure12_rows(cache, names)
    print(
        format_table(
            ["benchmark", "No-pref %", "Seq-pref %", "Dyn-pref %"],
            [[r["benchmark"], r["nopref_pct"], r["seqpref_pct"], r["dynpref_pct"]] for r in rows],
            title="Figure 12: performance impact of dynamic prefetching "
            "(negative = speedup)",
        )
    )
    quality = figures.figure12_quality_rows(cache, names, levels=("seq", "dyn"))
    print(
        format_table(
            ["benchmark", "level", "issued", "accuracy", "timeliness", "pollution"],
            [
                [
                    r["benchmark"],
                    r["level"],
                    r["issued"],
                    Ratio(r["accuracy"]),
                    Ratio(r["timeliness"]),
                    Ratio(r["pollution"]),
                ]
                for r in quality
            ],
            title="Figure 12 companion: prefetch quality per level "
            "(accuracy / timeliness / pollution)",
        )
    )


def _print_table2(cache: ResultCache, names: Sequence[str]) -> None:
    rows = figures.table2_rows(cache, names)
    print(
        format_table(
            [
                "benchmark",
                "#opt cycles",
                "#traced refs",
                "#hds",
                "DFSM states",
                "DFSM trans",
                "checks",
                "#procs",
            ],
            [
                [
                    r["benchmark"],
                    r["opt_cycles"],
                    r["traced_refs_per_cycle"],
                    r["hds_per_cycle"],
                    r["dfsm_states"],
                    r["dfsm_transitions"],
                    r["dfsm_checks"],
                    r["procs_modified"],
                ]
                for r in rows
            ],
            title="Table 2: detailed dynamic prefetching characterization (per-cycle averages)",
        )
    )


def _print_ablation_headlen(names: Sequence[str], cache: ResultCache) -> None:
    for name in names:
        rows = figures.ablation_headlen(
            name,
            passes=cache.passes_for(name),
            store=cache.store,
            jobs=cache.jobs,
            durability=cache.durability,
        )
        print(
            format_table(
                ["headLen", "Dyn-pref %", "accuracy", "issued"],
                [[r["head_len"], r["dynpref_pct"], r["prefetch_accuracy"], r["prefetches_issued"]] for r in rows],
                title=f"Ablation (Section 4.3): prefix-match length, {name}",
            )
        )


def _print_ablation_watchdog(cache: ResultCache, fault_seed: Optional[int]) -> None:
    scale = cache.passes_scale
    passes = None if scale == 1.0 else max(2, int(PhaseShiftParams().passes * scale))
    rows = figures.ablation_watchdog(
        passes=passes,
        fault_seed=fault_seed,
        store=cache.store,
        jobs=cache.jobs,
        durability=cache.durability,
    )
    print(
        format_table(
            [
                "variant",
                "cycles",
                "vs no-pref %",
                "#opt",
                "deopts",
                "wakes",
                "errors",
                "faults",
                "issued",
                "useful",
                "wasted",
            ],
            [
                [
                    r["variant"],
                    r["cycles"],
                    r["vs_nopref_pct"],
                    r["opt_cycles"],
                    r["deopts"],
                    r["early_wakes"],
                    r["errors"],
                    r["faults"],
                    r["issued"],
                    r["useful"],
                    r["wasted"],
                ]
                for r in rows
            ],
            title="Ablation (extension): prefetch watchdog under phase shifts",
        )
    )


def _print_ablation_hwpref(names: Sequence[str], cache: ResultCache) -> None:
    for name in names:
        rows = figures.ablation_hwpref(
            name,
            passes=cache.passes_for(name),
            store=cache.store,
            jobs=cache.jobs,
            durability=cache.durability,
        )
        print(
            format_table(
                ["scheme", "overhead %", "accuracy", "useful", "wasted"],
                [[r["scheme"], r["overhead_pct"], r["prefetch_accuracy"], r["useful"], r["wasted"]] for r in rows],
                title=f"Ablation (Section 5.1): hardware prefetcher baselines, {name}",
            )
        )


def _print_tables() -> None:
    """The deterministic worked examples, in bench_tables.txt order."""
    _print_figure4()
    print()
    _print_table1()
    print()
    _print_figure8()


def _render_trace(path, out: str, parser) -> tuple[str, str]:
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
        parser.error(f"cannot render {path}: {exc}")
    return source, written


def _run_trace(args, names: Sequence[str], cache: ResultCache, parser) -> int:
    import tempfile

    from repro.bench.runner import run_level
    from repro.errors import ConfigError
    from repro.obs.chunks import StreamingTraceSink
    from repro.telemetry.session import TelemetrySession

    if args.from_path is not None:
        source, written = _render_trace(args.from_path, args.out, parser)
        print(f"read {source} from {args.from_path}; {written}")
        return 0
    with tempfile.TemporaryDirectory(prefix="repro-trace-") as tmp:
        log_dir = args.telemetry or Path(tmp) / "log"
        try:
            sink = StreamingTraceSink(log_dir)
        except (ConfigError, OSError) as exc:
            parser.error(str(exc))
        try:
            for name in names:
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
                    name, args.level, opt=cache.opt, passes=cache.passes_for(name),
                    telemetry=session,
                )
                print(
                    f"  traced {name}/{args.level}: {result.cycles} cycles, "
                    f"{sink.records_total - before} events"
                )
        finally:
            sink.close()
        _source, written = _render_trace(log_dir, args.out, parser)
    print(f"{written}; open in ui.perfetto.dev or chrome://tracing")
    if args.telemetry:
        print(f"event log kept in {args.telemetry} (repro-bench trace --from <dir> renders it)")
    return 0


def _run_explain(args, names: Sequence[str], cache: ResultCache, parser) -> int:
    from repro.errors import ConfigError
    from repro.tracing.explain import (
        diff_levels,
        explain_level,
        offline_explanations,
        render_explanation,
        render_level_diff,
    )

    if args.from_path is not None:
        if args.stream is not None or args.against is not None:
            parser.error("--from renders stored summaries; it cannot combine "
                         "with --stream or --against")
        try:
            explanations = offline_explanations(args.from_path)
        except ConfigError as exc:
            parser.error(str(exc))
        for exp in explanations:
            print(render_explanation(exp))
            print()
        return 0
    if args.stream is not None and len(names) != 1:
        parser.error("--stream needs a single workload (use --workloads <name>)")
    if args.against is not None:
        if args.stream is not None:
            parser.error("--against diffs whole levels; it cannot combine with --stream")
        for name in names:
            diff = diff_levels(
                name,
                args.level,
                against=args.against,
                opt=cache.opt,
                passes=cache.passes_for(name),
                store=cache.store,
                jobs=cache.jobs,
                durability=cache.durability,
            )
            print(render_level_diff(diff))
            print()
        return 0
    status = 0
    for name in names:
        exp = explain_level(
            name,
            args.level,
            opt=cache.opt,
            passes=cache.passes_for(name),
            by_proc=args.by_proc,
        )
        print(render_explanation(exp, stream=args.stream))
        print()
        if exp.mismatches:
            status = 1
    return status


#: The flags that engage the supervised executor.
DURABILITY_FLAGS = ("--chaos-seed", "--task-timeout", "--checkpoint-every")


def _given(args, flags: Sequence[str]) -> list[str]:
    """Those of ``flags`` given on the command line."""
    return [flag for flag in flags if getattr(args, flag[2:].replace("-", "_")) is not None]


#: The worked examples of Figures 4 and 8 and Table 1: they simulate nothing.
WORKED_EXAMPLES = ("tables", "figure4", "table1", "figure8")


def _ignored_flags(args) -> list[str]:
    """The given flags that ``args.artifact`` would not honour.

    Only plans of single runs go through the supervised executor: ``trace``
    and ``explain`` (unless ``--against``) run live or offline, the tenancy
    artifacts run co-runs, which neither checkpoint nor record, and the
    worked examples run nothing.  ``explain`` records nothing either: it
    explains one run live, from the store or from a log.
    """
    tenancy = args.artifact in ("tenancy", "ablation-tenancy")
    examples = args.artifact in WORKED_EXAMPLES
    live = args.artifact == "trace" or (args.artifact == "explain" and args.against is None)
    flags = DURABILITY_FLAGS if tenancy or examples or live else ()
    if tenancy or examples or args.artifact == "explain":
        flags += ("--telemetry", "--metrics")
    return _given(args, flags)


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
    if not _given(args, DURABILITY_FLAGS):
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


def _run_verify(args, store: Optional[ResultStore], durability=None) -> int:
    from repro.oracle import golden as golden_corpus
    from repro.oracle.verify import run_verify

    golden_dir = args.golden_dir
    if args.update_golden:
        # Recording must freeze what the simulator *does*, never a replay.
        written = golden_corpus.record_corpus(golden_dir, jobs=args.jobs, durability=durability)
        for path in written:
            print(f"recorded {path}")
        print(f"golden corpus updated ({len(written)} runs)")
        return 0
    report = run_verify(
        seed=args.seed,
        runs=args.runs,
        golden_dir=golden_dir,
        include_golden=not args.skip_golden,
        progress=lambda message: print(f"  .. {message}"),
        store=store,
        jobs=args.jobs,
        durability=durability,
    )
    print(report.format())
    _print_cache_summary(store)
    return 0 if report.ok else 1


def _run_status(args, parser) -> int:
    """``repro-bench status [run-dir]``: render a supervised run's progress.

    Works identically on a run that is still executing, one that finished,
    and one whose process died — the file's age distinguishes them.
    """
    from repro.errors import ConfigError
    from repro.obs.status import read_status, render_status

    run_dir = args.subcommand if args.subcommand is not None else _cache_root(args) / "run"
    try:
        doc = read_status(run_dir)
    except ConfigError as exc:
        print(str(exc), file=sys.stderr)
        return 1
    print(render_status(doc))
    return 0


def _run_cache(args, parser) -> int:
    """``repro-bench cache``: inspect, clear or garbage-collect the store."""
    store = ResultStore(_cache_root(args))
    if args.subcommand == "gc":
        if args.max_age_days is None and args.max_size_mb is None:
            parser.error("cache gc needs --max-age-days and/or --max-size-mb")
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
        parser.error(f"unknown cache subcommand {args.subcommand!r} (known: gc)")
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


def _parse_tenants(args, parser, opt: OptimizerConfig, scale: float):
    """``--tenants vpr:dyn,phaseshift:dyn`` -> tuple of TenantSpecs."""
    from repro.engine.levels import level_names
    from repro.tenancy import TenantSpec

    known = set(presets.names()) | {"phaseshift"}
    specs = []
    for part in args.tenants.split(","):
        part = part.strip()
        if not part:
            continue
        name, sep, level = part.partition(":")
        if not sep or not name or not level:
            parser.error(f"bad tenant {part!r}; expected workload:level")
        if name not in known:
            parser.error(f"unknown tenant workload {name!r}; known: {sorted(known)}")
        if level not in level_names():
            parser.error(f"unknown tenant level {level!r}; known: {', '.join(level_names())}")
        if scale == 1.0:
            passes = None
        elif name == "phaseshift":
            passes = max(2, int(PhaseShiftParams().passes * scale))
        else:
            passes = max(2, int(presets.params_for(name).passes * scale))
        specs.append(TenantSpec(name, level, passes=passes, opt=opt))
    if not specs:
        parser.error("--tenants needs at least one workload:level entry")
    return tuple(specs)


def _run_tenancy(args, parser, opt: OptimizerConfig, store: Optional[ResultStore]) -> int:
    """``repro-bench tenancy``: one co-run, scorecard + pollution matrix."""
    from repro.engine.executor import run_spec
    from repro.tenancy import TenantPlan
    from repro.tenancy.ablation import check_result
    from repro.tenancy.scorecard import render_scorecard

    plan = TenantPlan(
        tenants=_parse_tenants(args, parser, opt, args.scale),
        quantum=args.quantum,
        sharing=args.sharing,
    )
    result = run_spec(plan, store=store)
    print(render_scorecard(result))
    problems = check_result(result)
    if problems:
        for problem in problems:
            print(f"RECONCILIATION FAILURE: {problem}", file=sys.stderr)
        return 1
    return 0


def _print_ablation_tenancy(cache: ResultCache) -> None:
    from repro.tenancy.ablation import ablation_tenancy, render_ablation

    scale = cache.passes_scale
    passes = None if scale == 1.0 else max(2, int(PhaseShiftParams().passes * scale))
    rows = ablation_tenancy(passes=passes, store=cache.store, jobs=cache.jobs)
    print(render_ablation(rows))


def _print_cache_summary(store: Optional[ResultStore]) -> None:
    """Session hit/miss summary on stderr (stdout stays cold/warm-identical)."""
    if store is not None and (store.hits or store.misses or store.stored):
        print(store.summary_line(), file=sys.stderr)


def main(argv: Optional[Sequence[str]] = None) -> int:
    """CLI entry point; returns a process exit code."""
    parser = argparse.ArgumentParser(prog="repro-bench", description=__doc__)
    parser.add_argument(
        "artifact",
        choices=[
            "figure4",
            "table1",
            "figure8",
            "figure11",
            "figure12",
            "table2",
            "ablation-headlen",
            "ablation-hwpref",
            "ablation-watchdog",
            "ablation-tenancy",
            "tenancy",
            "tables",
            "figures",
            "trace",
            "explain",
            "status",
            "verify",
            "cache",
            "all",
        ],
    )
    parser.add_argument(
        "subcommand",
        nargs="?",
        default=None,
        help="cache: optional subcommand (gc); "
        "status: run directory (default: the result cache's run/ directory)",
    )
    parser.add_argument("--scale", type=float, default=1.0, help="workload pass-count scale")
    parser.add_argument("--workloads", default="", help="comma-separated subset of benchmarks")
    parser.add_argument(
        "--jobs",
        type=int,
        default=1,
        metavar="N",
        help="run uncached simulations across N worker processes (default 1)",
    )
    parser.add_argument(
        "--cache-dir",
        default=None,
        metavar="DIR",
        help="result cache directory (default: $REPRO_CACHE_DIR or .repro-cache)",
    )
    parser.add_argument(
        "--no-cache",
        action="store_true",
        help="neither replay from nor write to the result cache",
    )
    parser.add_argument(
        "--clear",
        action="store_true",
        help="cache: delete every stored result instead of printing stats",
    )
    parser.add_argument(
        "--max-age-days",
        type=float,
        default=None,
        metavar="D",
        help="cache gc: evict entries not written in the last D days",
    )
    parser.add_argument(
        "--max-size-mb",
        type=float,
        default=None,
        metavar="M",
        help="cache gc: evict oldest entries until the store fits in M MiB",
    )
    parser.add_argument(
        "--dry-run",
        action="store_true",
        help="cache gc: report what would be evicted without deleting anything",
    )
    parser.add_argument(
        "--task-timeout",
        type=float,
        default=None,
        metavar="S",
        help="supervised executor: SIGKILL and retry any task running/stalled "
        "past S seconds (default 600 once engaged)",
    )
    parser.add_argument(
        "--checkpoint-every",
        type=int,
        default=None,
        metavar="N",
        help="supervised executor: checkpoint each run every N simulated "
        f"instructions (default {DEFAULT_CHECKPOINT_EVERY} once engaged)",
    )
    parser.add_argument(
        "--chaos-seed",
        type=int,
        default=None,
        metavar="SEED",
        help="deterministically inject engine-level faults (worker kills, "
        "stalls, torn checkpoints, corrupt result entries) from SEED; "
        "output must stay byte-identical",
    )
    parser.add_argument(
        "--tenants",
        default="vpr:dyn,phaseshift:dyn",
        metavar="W:L,...",
        help="tenancy: comma-separated workload:level tenant mix "
        "(default vpr:dyn,phaseshift:dyn)",
    )
    parser.add_argument(
        "--quantum",
        type=int,
        default=4096,
        metavar="N",
        help="tenancy: round-robin slice length in instructions (default 4096)",
    )
    parser.add_argument(
        "--sharing",
        choices=["shared", "private-l1"],
        default="private-l1",
        help="tenancy: cache sharing mode (default private-l1: per-tenant L1s, shared L2)",
    )
    parser.add_argument(
        "--telemetry",
        metavar="DIR",
        default=None,
        help="figures/trace: stream every run's telemetry events into this "
        "fresh directory as sealed, digest-tagged JSONL chunks (the event log "
        "that trace --from and explain --from read)",
    )
    parser.add_argument(
        "--metrics",
        metavar="OUT.JSON",
        default=None,
        help="write per-run metrics snapshots (keyed workload/level) to this JSON file",
    )
    parser.add_argument(
        "--miss-sample",
        type=int,
        default=64,
        metavar="N",
        help="emit one CacheMiss event per N demand misses (default 64)",
    )
    parser.add_argument(
        "--prefetch-sample",
        type=int,
        default=32,
        metavar="N",
        help="emit one prefetch life-cycle event per N occurrences (default 32; 1 = all)",
    )
    parser.add_argument(
        "--watchdog",
        action="store_true",
        help="arm the prefetch watchdog (per-stream deoptimization) for every optimized run",
    )
    parser.add_argument(
        "--fault-seed",
        type=int,
        default=None,
        metavar="SEED",
        help="deterministically inject optimizer faults from SEED (runs must still complete)",
    )
    parser.add_argument(
        "--out",
        metavar="TRACE.JSON|TRACE.PFTRACE",
        default="trace.json",
        help="trace: output path of the rendered trace; Perfetto protobuf when it "
        "ends in .pftrace, else Chrome trace-event JSON (default trace.json)",
    )
    parser.add_argument(
        "--level",
        default="dyn",
        help="trace/explain: measurement level to run (default dyn)",
    )
    parser.add_argument(
        "--stream",
        metavar="ID",
        default=None,
        help="explain: zoom into one stream's scorecard (id from the summary table)",
    )
    parser.add_argument(
        "--from",
        dest="from_path",
        metavar="PATH",
        default=None,
        help="trace/explain: read an existing chunk directory or monolithic "
        "trace JSON instead of simulating (trace: render to --out; "
        "explain: render the embedded run summaries)",
    )
    parser.add_argument(
        "--by-proc",
        action="store_true",
        help="explain/trace: record per-procedure cycle attribution "
        "(explain renders the per-proc table; trace embeds it in summaries)",
    )
    parser.add_argument(
        "--against",
        metavar="LEVEL",
        default=None,
        help="explain: diff --level's attribution against this level (e.g. orig)",
    )
    parser.add_argument(
        "--seed",
        type=int,
        default=0,
        help="verify: seed for the randomized differential sections (default 0)",
    )
    parser.add_argument(
        "--runs",
        type=int,
        default=25,
        metavar="N",
        help="verify: generated inputs per randomized section (default 25)",
    )
    parser.add_argument(
        "--update-golden",
        action="store_true",
        help="verify: re-record the golden corpus instead of diffing against it",
    )
    parser.add_argument(
        "--golden-dir",
        default=None,
        metavar="DIR",
        help="verify: golden corpus directory (default: tests/golden of this repo)",
    )
    parser.add_argument(
        "--skip-golden",
        action="store_true",
        help="verify: run only the differential and metamorphic sections",
    )
    args = parser.parse_args(argv)

    if args.jobs < 1:
        parser.error("--jobs must be >= 1")
    if args.task_timeout is not None and args.task_timeout <= 0:
        parser.error("--task-timeout must be > 0")
    if args.checkpoint_every is not None and args.checkpoint_every < 1:
        parser.error("--checkpoint-every must be >= 1")
    if args.stream is not None and args.artifact != "explain":
        parser.error("--stream names a stream id for explain; "
                     "log events with --telemetry DIR instead")
    ignored = _ignored_flags(args)
    if ignored:
        parser.error(f"{args.artifact} does not take {', '.join(ignored)}")
    if args.artifact == "cache":
        return _run_cache(args, parser)
    if args.artifact == "status":
        return _run_status(args, parser)
    store = None if args.no_cache else ResultStore(_cache_root(args))
    durability = _durability_policy(args)

    if args.artifact == "verify":
        return _run_verify(args, store, durability=durability)

    names = [n for n in args.workloads.split(",") if n] or presets.names()
    unknown = set(names) - set(presets.names())
    if unknown:
        parser.error(f"unknown workloads: {sorted(unknown)}")
    # trace logs its own events; every other artifact that takes the flags
    # records through the shared recorder, whose sink refuses a used
    # --telemetry directory before any run starts.
    recording = bool(args.telemetry or args.metrics) and args.artifact != "trace"
    if recording and durability is not None:
        # A recorded run executes live and in-process, never through the
        # supervised executor, so these flags would be silently ignored.
        parser.error(
            f"{', '.join(_given(args, DURABILITY_FLAGS))} cannot combine with "
            f"{'--telemetry' if args.telemetry else '--metrics'}: recorded runs "
            "execute live, outside the supervised executor"
        )
    if args.metrics:
        try:
            # Fail fast: a bad path should not surface minutes into a run.
            open(args.metrics, "a", encoding="utf-8").close()
        except OSError as exc:
            parser.error(f"cannot write {args.metrics}: {exc}")
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
            parser.error(str(exc))
    opt = OptimizerConfig()
    if args.watchdog:
        opt = replace(opt, watchdog=WatchdogConfig())
    if args.fault_seed is not None:
        opt = replace(opt, faults=FaultPlan(seed=args.fault_seed))
    cache = ResultCache(
        opt=opt,
        passes_scale=args.scale,
        recorder=recorder,
        store=store,
        jobs=args.jobs,
        durability=durability,
    )

    if args.artifact == "tenancy":
        status = _run_tenancy(args, parser, opt, store)
        _print_cache_summary(store)
        return status
    if args.artifact == "ablation-tenancy":
        _print_ablation_tenancy(cache)
        _print_cache_summary(store)
        return 0

    if args.artifact in ("trace", "explain"):
        from repro.bench.runner import LEVELS

        for level in (args.level, args.against):
            if level is not None and level not in LEVELS:
                parser.error(f"unknown level {level!r}; known: {', '.join(LEVELS)}")
        if args.artifact == "trace":
            return _run_trace(args, names, cache, parser)
        status = _run_explain(args, names, cache, parser)
        _print_cache_summary(store)
        return status

    if args.artifact == "tables":
        _print_tables()
        return 0
    if args.artifact in ("figure4", "all"):
        _print_figure4()
    if args.artifact in ("table1", "all"):
        _print_table1()
    if args.artifact in ("figure8", "all"):
        _print_figure8()
    if args.artifact in ("figures", "all"):
        # One plan for the whole grid, so a supervised run's status.json
        # lists every task of it.
        cache.warm([(n, level) for n in names for level in figures.FIGURE_LEVELS])
    if args.artifact in ("figure11", "figures", "all"):
        _print_figure11(cache, names)
    if args.artifact in ("figure12", "figures", "all"):
        _print_figure12(cache, names)
    if args.artifact in ("table2", "figures", "all"):
        _print_table2(cache, names)
    if args.artifact in ("ablation-headlen", "all"):
        _print_ablation_headlen(names, cache)
    if args.artifact in ("ablation-hwpref", "all"):
        _print_ablation_hwpref(names, cache)
    if args.artifact in ("ablation-watchdog", "all"):
        _print_ablation_watchdog(cache, args.fault_seed)
    if recorder is not None:
        recorder.close()
        if args.telemetry:
            print(f"telemetry events written to {args.telemetry}")
        if args.metrics:
            print(f"metrics snapshots written to {args.metrics}")
    _print_cache_summary(store)
    return 0


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
