"""Supervised plan execution: heartbeats, timeouts, retries, resumable plans.

:func:`execute_plan_supervised` is the crash-safe sibling of
:func:`~repro.engine.executor.execute_plan`, engaged through its
``durability`` parameter.  Same contract — results in plan order,
bit-identical to serial execution — plus a production posture:

* every task runs in its own killable ``multiprocessing.Process``, with a
  heartbeat thread stamping a shared monotonic clock so the supervisor can
  tell *stuck* from *slow*;
* a worker that crashes, stalls past ``stall_timeout`` or runs past
  ``task_timeout`` is SIGKILLed and retried with exponential backoff, up to
  ``max_attempts``; the final attempt runs serially in-process, so a plan
  always completes;
* workers checkpoint their runs (:mod:`repro.durability.runner`), so a
  retried task resumes mid-run instead of restarting;
* every finished task is stored in the result store (fsync'd,
  digest-tagged) *before* the plan moves on — the caller's store, or a
  private one under the run root that retires with the plan — so running
  an interrupted plan again replays its finished tasks and resumes the rest
  from their checkpoints;
* each task's row in ``status.json`` records its failed attempts
  (``crash``, ``timeout`` or ``stall``) and its slow-but-progressing spells;
* an optional :class:`~repro.durability.chaos.ChaosPlan` deterministically
  injects the very failures the machinery defends (worker SIGKILL, stalls,
  torn checkpoints, corrupt result entries).

Failure handling is strictly *recompute, never trust damaged state*: a
truncated checkpoint or corrupt result entry costs time, not correctness.
"""

from __future__ import annotations

import multiprocessing
import os
import signal
import threading
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable, Optional, Union

from repro.durability.chaos import ChaosInjector, ChaosPlan
from repro.durability.runner import DEFAULT_CHECKPOINT_EVERY, run_spec_durable
from repro.engine.cache import ResultStore, default_cache_root
from repro.engine.result import RunResult
from repro.engine.spec import RunPlan, RunSpec
from repro.obs.status import StatusWriter

ProgressHook = Callable[[RunSpec, RunResult], None]

#: Slots in the per-task shared progress array (doubles), in order.
_PROGRESS_FIELDS = ("icount", "cycles", "epoch", "hit_ewma", "acc_ewma")


@dataclass(frozen=True)
class SupervisorConfig:
    """Deadlines and retry policy for supervised workers.

    ``task_timeout`` bounds one attempt's wall-clock; ``stall_timeout``
    bounds the gap between heartbeats (a live worker beats every
    ``heartbeat_every`` seconds).  Retries back off exponentially:
    ``backoff_base * backoff_factor ** attempt`` seconds.
    """

    task_timeout: float = 600.0
    stall_timeout: float = 10.0
    heartbeat_every: float = 0.25
    max_attempts: int = 3
    backoff_base: float = 0.25
    backoff_factor: float = 2.0
    poll_every: float = 0.02


@dataclass
class DurabilityPolicy:
    """Everything the engine needs to run a plan durably.

    ``run_root`` defaults to ``<cache root>/run`` (the store's root when one
    is attached, else the global default).  It holds checkpoints,
    ``status.json`` and, for a plan without a store, the plan's private
    results, under the same ``.repro-cache/`` umbrella the ``.gitignore``
    already covers.
    """

    run_root: Union[str, os.PathLike, None] = None
    checkpoint_every: int = DEFAULT_CHECKPOINT_EVERY
    supervisor: SupervisorConfig = field(default_factory=SupervisorConfig)
    chaos: Optional[ChaosPlan] = None

    def resolve_run_root(self, store: Optional[ResultStore]) -> Path:
        if self.run_root is not None:
            return Path(self.run_root)
        root = store.root if store is not None else default_cache_root()
        return Path(root) / "run"


def _durable_worker(
    conn,
    spec_doc: dict,
    checkpoint_path: str,
    checkpoint_every: int,
    heartbeat,
    heartbeat_every: float,
    directive: Optional[str],
    progress_array=None,
) -> None:
    """Worker process: execute one spec durably, heartbeating throughout.

    ``directive`` carries a chaos order decided by the parent: ``kill``
    makes the worker SIGKILL itself mid-task (after checkpointing, so the
    retry exercises resume); ``stall`` makes it stop heartbeating and hang.

    ``progress_array`` is a shared 5-double array (:data:`_PROGRESS_FIELDS`)
    the worker stamps at every slice boundary — the supervisor reads it to
    feed ``status.json`` and to tell *slow but progressing* from *stuck*.
    """
    spec = RunSpec.from_dict(spec_doc)
    if directive == "stall":
        # Never beat; the supervisor's stall deadline must catch this.
        time.sleep(3600.0)
        return
    stop = threading.Event()

    def beat() -> None:
        while not stop.is_set():
            heartbeat.value = time.monotonic()
            stop.wait(heartbeat_every)

    heartbeat.value = time.monotonic()
    threading.Thread(target=beat, daemon=True).start()
    progress = _progress_callback(progress_array)
    if directive == "kill":
        # Die mid-run with progress on disk (one checkpoint if the run is
        # long enough to reach a boundary).
        run_spec_durable(
            spec, checkpoint_path, checkpoint_every,
            stop_after_checkpoints=1, progress=progress,
        )
        os.kill(os.getpid(), signal.SIGKILL)
    result = run_spec_durable(spec, checkpoint_path, checkpoint_every, progress=progress)
    conn.send(result.to_dict())
    conn.close()
    stop.set()


def _progress_callback(progress_array):
    """Adapt a shared 5-double array to the runner's progress-dict callback."""
    if progress_array is None:
        return None

    def publish(doc: dict) -> None:
        for slot, name in enumerate(_PROGRESS_FIELDS):
            progress_array[slot] = float(doc.get(name, 0.0))

    return publish


class _Task:
    """Supervisor-side state of one plan entry."""

    __slots__ = (
        "index", "spec", "checkpoint_path", "attempts",
        "proc", "conn", "heartbeat", "started", "eligible_at",
        "progress", "last_icount", "advanced_at", "slow_noted",
    )

    def __init__(self, index: int, spec: RunSpec, checkpoint_path: Path) -> None:
        self.index = index
        self.spec = spec
        self.checkpoint_path = checkpoint_path
        self.attempts = 0
        self.proc = None
        self.conn = None
        self.heartbeat = None
        self.started = 0.0
        self.eligible_at = 0.0
        #: shared 5-double array (_PROGRESS_FIELDS); survives retries so a
        #: resumed attempt keeps reporting from its checkpointed icount
        self.progress = multiprocessing.Array("d", len(_PROGRESS_FIELDS))
        self.last_icount = 0.0
        self.advanced_at = 0.0
        self.slow_noted = False


class _StatusBoard:
    """Maintains ``status.json`` (atomic, throttled) for one supervised plan.

    Purely supervisor-side bookkeeping over heartbeat/progress arrays the
    workers already maintain; nothing here touches a simulation, and a dead
    supervisor simply leaves the last written document behind — which is
    exactly what ``repro-bench status`` then reports (with its staleness
    inferred from ``updated_at``).
    """

    def __init__(self, plan: RunPlan, root: Path, jobs: int) -> None:
        self.writer = StatusWriter(root)
        self.plan_fp = plan.fingerprint()
        self.jobs = max(1, jobs)
        self.tasks = [
            {
                "index": i,
                "workload": spec.workload,
                "level": spec.level,
                "state": "pending",
                "attempts": 0,
                "icount": 0,
                "cycles": 0,
                "epoch": 0,
                "hit_ewma": 0.0,
                "acc_ewma": 0.0,
                #: one reason per failed attempt: crash, timeout or stall
                "failures": [],
                #: spells of missed heartbeats while the simulation advanced
                "slow": 0,
            }
            for i, spec in enumerate(plan)
        ]
        self._ran_started: dict[int, float] = {}
        self._durations: list[float] = []

    def mark(self, index: int, state: str, attempts: Optional[int] = None) -> None:
        entry = self.tasks[index]
        now = time.monotonic()
        if state == "running" and index not in self._ran_started:
            self._ran_started[index] = now
        if state == "done" and index in self._ran_started:
            self._durations.append(now - self._ran_started.pop(index))
        entry["state"] = state
        if attempts is not None:
            entry["attempts"] = attempts
        self.write(force=True)

    def observe(self, task: "_Task") -> None:
        """Copy a running task's shared progress array into its status row."""
        entry = self.tasks[task.index]
        values = task.progress[:]
        entry["icount"] = int(values[0])
        entry["cycles"] = int(values[1])
        entry["epoch"] = int(values[2])
        entry["hit_ewma"] = round(values[3], 4)
        entry["acc_ewma"] = round(values[4], 4)
        entry["attempts"] = task.attempts

    def _eta(self) -> Optional[float]:
        remaining = sum(
            1
            for entry in self.tasks
            if entry["state"] not in ("done", "cached")
        )
        if not remaining or not self._durations:
            return None
        mean = sum(self._durations) / len(self._durations)
        return mean * remaining / self.jobs

    def write(self, force: bool = False, done: bool = False) -> None:
        self.writer.write(
            {
                "plan": self.plan_fp,
                "done": done,
                "eta_s": self._eta(),
                "tasks": self.tasks,
            },
            force=force,
        )


def execute_plan_supervised(
    plan: RunPlan,
    jobs: int = 1,
    store: Optional[ResultStore] = None,
    progress: Optional[ProgressHook] = None,
    policy: Optional[DurabilityPolicy] = None,
) -> list[RunResult]:
    """Execute ``plan`` under supervision; results in plan order, always.

    Resolution order per task: the result store, then supervised worker
    execution with retries, then the in-process fallback.  Every finished
    task is stored before the plan moves on, in ``store`` or, without one,
    in a private store under the run root, so any interruption — including
    SIGKILL of this very process — is resumed by executing the same plan
    again.  A completed plan retires its checkpoints and private results.
    """
    policy = policy if policy is not None else DurabilityPolicy()
    cfg = policy.supervisor
    chaos = ChaosInjector(policy.chaos) if policy.chaos is not None else None
    root = policy.resolve_run_root(store)
    results_store = store if store is not None else ResultStore(root / "results")
    fingerprints = [spec.fingerprint() for spec in plan]
    results: list[Optional[RunResult]] = [None] * len(plan)
    board = _StatusBoard(plan, root, jobs)

    def resolve(index: int, result: RunResult) -> None:
        results_store.store(plan[index], result)
        if chaos is not None and chaos.fire("corrupt_cache_entry", fingerprints[index]):
            chaos.corrupt_file(results_store.path_for(fingerprints[index]), "corrupt_cache_entry")
        results[index] = result
        board.mark(index, "done")
        if progress is not None:
            progress(plan[index], result)

    # Phase 1: replay finished tasks (hits are exact replays; corrupt
    # entries already degrade to misses inside the store).
    for index, spec in enumerate(plan):
        cached = results_store.load(spec)
        if cached is not None:
            results[index] = cached
            board.mark(index, "cached")
            if progress is not None:
                progress(spec, cached)

    pending = [
        _Task(i, plan[i], root / "checkpoints" / f"{fingerprints[i]}.ckpt")
        for i in range(len(plan))
        if results[i] is None
    ]

    # Phase 2: supervised workers.
    _supervise(pending, jobs, cfg, policy, chaos, resolve, board)

    # Phase 3: retire the checkpoints of killed final attempts and, without
    # a caller's store, the plan's private results.
    retired = [task.checkpoint_path for task in pending]
    if store is None:
        retired += [results_store.path_for(fp) for fp in fingerprints]
    for path in retired:
        try:
            path.unlink()
        except OSError:
            pass
    board.write(force=True, done=True)
    return [r for r in results if r is not None]


def _supervise(
    pending: list[_Task],
    jobs: int,
    cfg: SupervisorConfig,
    policy: DurabilityPolicy,
    chaos: Optional[ChaosInjector],
    resolve: Callable[[int, RunResult], None],
    board: _StatusBoard,
) -> None:
    """Drive the worker fleet until every pending task has a result."""
    queue = list(pending)
    running: list[_Task] = []
    mp = multiprocessing.get_context()

    def launch(task: _Task) -> bool:
        directive = None
        if chaos is not None:
            if chaos.fire("kill_worker", task.spec.label):
                directive = "kill"
            elif chaos.fire("stall_worker", task.spec.label):
                directive = "stall"
        try:
            recv, send = mp.Pipe(duplex=False)
            # One clock read starts the heartbeat and the progress grace
            # period, so a worker that never beats is a stall, never a
            # slow spell first.
            task.started = time.monotonic()
            task.heartbeat = mp.Value("d", task.started)
            task.conn = recv
            task.proc = mp.Process(
                target=_durable_worker,
                args=(
                    send,
                    task.spec.to_dict(),
                    str(task.checkpoint_path),
                    policy.checkpoint_every,
                    task.heartbeat,
                    cfg.heartbeat_every,
                    directive,
                    task.progress,
                ),
                daemon=True,
            )
            task.proc.start()
            send.close()
        except Exception:
            return False
        task.advanced_at = task.started
        task.slow_noted = False
        board.mark(task.index, "running", attempts=task.attempts)
        return True

    def reap(task: _Task) -> None:
        if task.proc is not None:
            if task.proc.is_alive():
                task.proc.kill()
            task.proc.join(timeout=10.0)
            task.proc = None
        if task.conn is not None:
            task.conn.close()
            task.conn = None

    def run_inline(task: _Task) -> None:
        # The availability backstop: exhausted retries run here, in-process,
        # resuming the worker's last checkpoint.
        board.mark(task.index, "running", attempts=task.attempts)
        result = run_spec_durable(
            task.spec, task.checkpoint_path, policy.checkpoint_every,
            progress=_progress_callback(task.progress),
        )
        board.observe(task)
        resolve(task.index, result)

    def fail(task: _Task, reason: str) -> None:
        reap(task)
        task.attempts += 1
        board.tasks[task.index]["failures"].append(reason)
        if task.attempts >= cfg.max_attempts:
            run_inline(task)
            return
        if chaos is not None and chaos.fire("truncate_checkpoint", str(task.checkpoint_path)):
            chaos.truncate_file(task.checkpoint_path)
        backoff = cfg.backoff_base * (cfg.backoff_factor ** (task.attempts - 1))
        task.eligible_at = time.monotonic() + backoff
        board.mark(task.index, "retrying", attempts=task.attempts)
        queue.append(task)

    while queue or running:
        now = time.monotonic()
        # Launch eligible tasks into free slots (plan order first).
        for task in sorted(queue, key=lambda t: t.index):
            if len(running) >= max(1, jobs):
                break
            if task.eligible_at > now:
                continue
            queue.remove(task)
            if launch(task):
                running.append(task)
            else:
                run_inline(task)  # cannot even fork: finish it here
        made_progress = False
        for task in list(running):
            now = time.monotonic()
            elapsed = now - task.started
            # Track simulated progress (slice-boundary icount stamps) so the
            # stall deadline can tell *slow but progressing* from *stuck*.
            icount = task.progress[0]
            if icount > task.last_icount:
                task.last_icount = icount
                task.advanced_at = now
                task.slow_noted = False
            board.observe(task)
            # The pipe is checked before liveness so a worker that delivered
            # its result and exited in the same poll window counts as done,
            # not crashed (a lost-then-recomputed result would still be
            # correct, just wasted work).
            if task.conn is not None and task.conn.poll():
                try:
                    doc = task.conn.recv()
                    result = RunResult.from_dict(doc)
                except Exception:
                    running.remove(task)
                    fail(task, "crash")
                else:
                    reap(task)
                    running.remove(task)
                    resolve(task.index, result)
                made_progress = True
            elif task.proc is not None and not task.proc.is_alive():
                running.remove(task)
                fail(task, "crash")
                made_progress = True
            elif elapsed > cfg.task_timeout:
                running.remove(task)
                fail(task, "timeout")
                made_progress = True
            elif now - task.heartbeat.value > cfg.stall_timeout:
                if now - task.advanced_at <= cfg.stall_timeout:
                    # Heartbeats missed but the simulation is still moving
                    # (slice stamps advance): slow, not stuck.  Spare it and
                    # count one slow spell per quiet spell instead of killing
                    # work that a retry would only have to redo.
                    if not task.slow_noted:
                        task.slow_noted = True
                        board.tasks[task.index]["slow"] += 1
                else:
                    running.remove(task)
                    fail(task, "stall")
                    made_progress = True
        board.write()
        if not made_progress:
            time.sleep(cfg.poll_every)
