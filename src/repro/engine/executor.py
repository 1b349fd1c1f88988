"""Cache-aware execution of jobs, serially or across a process pool.

A job is a :class:`~repro.engine.spec.RunSpec` or a tenancy co-run
(:class:`~repro.tenancy.plan.TenantPlan`), and nothing here branches on
which: a job runs itself and the store loads and stores it.
:func:`run_spec` is the single-job case of :func:`execute_plan`, which
executes a whole :class:`~repro.engine.spec.RunPlan`, kinds mixed freely:

- cache hits are resolved up front (replay is microseconds; forking a worker
  for one would cost more than it saves);
- the remaining jobs run in a ``ProcessPoolExecutor`` when ``jobs > 1``,
  each worker receiving the pickled (frozen) job and returning the
  serialized result (an exact round trip, so parallel output is
  bit-identical to serial);
- results are returned **in plan order** regardless of completion order, so
  downstream rendering is deterministic;
- a crashed or failed worker run is retried once, serially, in-process; a
  pool that cannot even start degrades to all-serial.  Parallelism is a
  throughput knob, never a correctness or availability risk.

Workers re-derive everything from the job (workload builds included).
Telemetry event sessions cannot cross the process boundary — and cached
results cannot replay events either — which is why :func:`run_spec`
bypasses the store entirely when an explicit telemetry session is passed:
evented runs always simulate, live.
"""

from __future__ import annotations

from concurrent.futures import FIRST_COMPLETED, ProcessPoolExecutor, wait
from typing import Callable, Optional

from repro.engine.cache import ResultStore
from repro.engine.spec import Job, RunPlan
from repro.telemetry.session import TelemetrySession


def run_spec(
    spec: Job,
    store: Optional[ResultStore] = None,
    telemetry: Optional[TelemetrySession] = None,
):
    """Execute one job, replaying from ``store`` when possible.

    An explicit ``telemetry`` session (single runs only) disables the cache
    for this run in both directions: a cached replay could not re-emit the
    run's event stream, and an evented run is observationally richer than
    what the cache stores.
    """
    if telemetry is not None:
        return spec.run(telemetry)
    return execute_plan(RunPlan.of(spec), store=store)[0]


def _worker_execute(job: Job) -> dict:
    """Pool worker: job in, serialized result out.

    Runs in a child process; deliberately cache-blind (the parent already
    resolved hits, and letting workers write the store would race the
    parent's counters).
    """
    return job.run().to_dict()


def execute_plan(
    plan: RunPlan,
    jobs: int = 1,
    store: Optional[ResultStore] = None,
    pool_factory: Optional[Callable[[int], ProcessPoolExecutor]] = None,
    durability=None,
) -> list:
    """Execute every job in ``plan``; returns results in plan order.

    ``jobs`` caps worker processes (1 = stay in-process).  ``pool_factory``
    is an injection seam for tests (crash simulation); the default builds a
    standard ``ProcessPoolExecutor``.

    ``durability`` (a :class:`~repro.durability.supervisor.DurabilityPolicy`)
    reroutes the whole plan through the supervised executor — results
    stored as each task finishes, per-task timeouts and heartbeats, bounded
    retries, checkpointed workers, optional chaos injection — with
    byte-identical results (``pool_factory`` does not apply there, and the
    plan must hold run specs only).
    """
    if durability is not None:
        from repro.durability.supervisor import execute_plan_supervised

        return execute_plan_supervised(plan, jobs=jobs, store=store, policy=durability)
    results: list = [None] * len(plan)
    pending: list[int] = []

    # Phase 1: resolve cache hits in-process, collect the rest.
    for index, job in enumerate(plan):
        if store is not None:
            results[index] = store.load(job)
        if results[index] is None:
            pending.append(index)

    # Phase 2: simulate the misses, across a pool when it pays.
    failed = pending
    if jobs > 1 and len(pending) > 1:
        failed = _run_pooled(plan, pending, results, jobs, store, pool_factory)

    # Phase 3: serial path — first runs, then per-run retries of pool losses.
    for index in failed:
        results[index] = plan[index].run()
        if store is not None:
            store.store(plan[index], results[index])

    return [r for r in results if r is not None]


def _run_pooled(
    plan: RunPlan,
    pending: list[int],
    results: list,
    jobs: int,
    store: Optional[ResultStore],
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

    try:
        with pool:
            futures: dict[int, object] = {}
            for index in pending:
                try:
                    futures[index] = pool.submit(_worker_execute, plan[index])
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
                    job = plan[index]
                    try:
                        result = job.decode(future.result())
                    except Exception:
                        continue
                    if store is not None:
                        store.store(job, result)
                    results[index] = result
    except Exception:
        # Broken pool mid-wait: everything unresolved retries serially.
        pass
    return [i for i in pending if results[i] is None]
