"""Cache-aware execution of run specs, serially or across a process pool.

:func:`run_spec` is the single-spec primitive: consult the
:class:`~repro.engine.cache.ResultStore` (if given), simulate on a miss,
store the fresh result.  :func:`execute_plan` lifts it to a whole
:class:`~repro.engine.spec.RunPlan`:

- cache hits are resolved up front (replay is microseconds; forking a worker
  for one would cost more than it saves);
- the remaining specs run in a ``ProcessPoolExecutor`` when ``jobs > 1``,
  each worker receiving the serialized spec and returning the serialized
  result (both ends are exact round trips, so parallel output is
  bit-identical to serial);
- results are returned **in plan order** regardless of completion order, so
  downstream rendering is deterministic;
- a crashed or failed worker run is retried once, serially, in-process; a
  pool that cannot even start degrades to all-serial.  Parallelism is a
  throughput knob, never a correctness or availability risk.

Workers re-derive everything from the spec (workload build included), so the
only state crossing the process boundary is JSON.  Telemetry event sessions
cannot cross it — and cached results cannot replay events either — which is
why :func:`run_spec` bypasses the store entirely when an explicit telemetry
session is passed: evented runs always simulate, live.
"""

from __future__ import annotations

from concurrent.futures import FIRST_COMPLETED, ProcessPoolExecutor, wait
from typing import Callable, Optional

from repro.engine.cache import ResultStore
from repro.engine.levels import execute_workload
from repro.engine.result import RunResult
from repro.engine.spec import RunPlan, RunSpec
from repro.telemetry.session import TelemetrySession

#: progress callback: (spec, result) after each run resolves.
ProgressHook = Callable[[RunSpec, RunResult], None]


def run_spec(
    spec: RunSpec,
    store: Optional[ResultStore] = None,
    telemetry: Optional[TelemetrySession] = None,
) -> RunResult:
    """Execute one spec, replaying from ``store`` when possible.

    An explicit ``telemetry`` session disables the cache for this run in both
    directions: a cached replay could not re-emit the run's event stream, and
    an evented run is observationally richer than what the cache stores.
    """
    if telemetry is not None:
        return execute_workload(spec.build(), spec.level, spec.machine, spec.opt, telemetry)
    if store is not None:
        cached = store.load(spec)
        if cached is not None:
            return cached
    result = execute_workload(spec.build(), spec.level, spec.machine, spec.opt)
    if store is not None:
        store.store(spec, result)
    return result


def _worker_execute(spec_doc: dict) -> dict:
    """Pool worker: serialized spec in, serialized result out.

    Runs in a child process; deliberately cache-blind (the parent already
    resolved hits, and letting workers write the store would race the
    parent's counters).
    """
    spec = RunSpec.from_dict(spec_doc)
    result = execute_workload(spec.build(), spec.level, spec.machine, spec.opt)
    return result.to_dict()


def execute_plan(
    plan: RunPlan,
    jobs: int = 1,
    store: Optional[ResultStore] = None,
    progress: Optional[ProgressHook] = None,
    pool_factory: Optional[Callable[[int], ProcessPoolExecutor]] = None,
    durability=None,
) -> list[RunResult]:
    """Execute every spec in ``plan``; returns results in plan order.

    ``jobs`` caps worker processes (1 = stay in-process).  ``pool_factory``
    is an injection seam for tests (crash simulation); the default builds a
    standard ``ProcessPoolExecutor``.

    ``durability`` (a :class:`~repro.durability.supervisor.DurabilityPolicy`)
    reroutes the whole plan through the supervised executor — results
    stored as each task finishes, per-task timeouts and heartbeats, bounded
    retries, checkpointed workers, optional chaos injection — with
    byte-identical results (``pool_factory`` does not apply there).
    """
    if durability is not None:
        from repro.durability.supervisor import execute_plan_supervised

        return execute_plan_supervised(
            plan, jobs=jobs, store=store, progress=progress, policy=durability
        )
    results: list[Optional[RunResult]] = [None] * len(plan)
    pending: list[int] = []

    # Phase 1: resolve cache hits in-process, collect the rest.
    for index, spec in enumerate(plan):
        if store is not None:
            cached = store.load(spec)
            if cached is not None:
                results[index] = cached
                if progress is not None:
                    progress(spec, cached)
                continue
        pending.append(index)

    # Phase 2: simulate the misses, across a pool when it pays.
    failed: list[int] = []
    if jobs > 1 and len(pending) > 1:
        failed = _run_pooled(plan, pending, results, jobs, store, progress, pool_factory)
    else:
        failed = pending

    # Phase 3: serial path — first runs, then per-run retries of pool losses.
    for index in failed:
        spec = plan[index]
        result = execute_workload(spec.build(), spec.level, spec.machine, spec.opt)
        if store is not None:
            store.store(spec, result)
        results[index] = result
        if progress is not None:
            progress(spec, result)

    return [r for r in results if r is not None]


def _run_pooled(
    plan: RunPlan,
    pending: list[int],
    results: list[Optional[RunResult]],
    jobs: int,
    store: Optional[ResultStore],
    progress: Optional[ProgressHook],
    pool_factory: Optional[Callable[[int], ProcessPoolExecutor]],
) -> list[int]:
    """Run ``pending`` plan indices across a process pool.

    Returns the indices that did not produce a result (pool-creation
    failure, worker crash, task exception) for the caller's serial retry.
    """
    workers = min(jobs, len(pending))
    factory = pool_factory if pool_factory is not None else (
        lambda n: ProcessPoolExecutor(max_workers=n)
    )
    try:
        pool = factory(workers)
    except Exception:
        return list(pending)

    failed: list[int] = []
    try:
        with pool:
            futures: dict[int, object] = {}
            for index in pending:
                try:
                    futures[index] = pool.submit(_worker_execute, plan[index].to_dict())
                except Exception:
                    # Pool already broken — everything not yet submitted goes
                    # straight to the serial retry; in-flight futures are
                    # still drained below (they fail fast on a broken pool).
                    break
            outstanding = {f: i for i, f in futures.items()}
            while outstanding:
                done, _ = wait(list(outstanding), return_when=FIRST_COMPLETED)
                for future in done:
                    index = outstanding.pop(future)
                    spec = plan[index]
                    try:
                        result = RunResult.from_dict(future.result())
                    except Exception:
                        failed.append(index)
                        continue
                    if store is not None:
                        store.store(spec, result)
                    results[index] = result
                    if progress is not None:
                        progress(spec, result)
    except Exception:
        # Broken pool mid-wait: everything unresolved retries serially.
        pass

    failed.extend(i for i in pending if results[i] is None and i not in failed)
    return sorted(set(failed))
