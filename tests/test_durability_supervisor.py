"""Supervised plan execution: identity, recovery, resume.

Everything here pins one claim: whatever the supervisor survives — crashes,
stalls, torn checkpoints, corrupt result entries, a rerun after being
killed — its results are bit-identical to plain serial execution.
"""

import pytest

from repro.durability import ChaosPlan, DurabilityPolicy, SupervisorConfig
from repro.durability.runner import run_spec_durable
from repro.durability.supervisor import execute_plan_supervised
from repro.engine.cache import ResultStore
from repro.engine.executor import execute_plan
from repro.engine.result import RunResult
from repro.engine.spec import RunPlan, RunSpec
from repro.obs.status import read_status

#: Small but real plan: two levels of one workload plus a second workload.
PLAN = RunPlan.of(
    RunSpec("vortex", "orig", passes=1),
    RunSpec("vortex", "dyn", passes=1),
    RunSpec("mcf", "orig", passes=1),
)

#: Fast supervisor: tight deadlines so failure paths resolve in seconds.
FAST = SupervisorConfig(task_timeout=120.0, stall_timeout=2.0, backoff_base=0.05)

#: Checkpoint cadence of the chaos cases: finer than the default, so the
#: plan's cells write checkpoints for the kills and truncations to hit.
CHAOS_EVERY = 250_000


def _docs(results):
    return [r.to_dict() for r in results]


def _rows(root):
    """The task rows of the run's ``status.json``."""
    return read_status(root)["tasks"]


def _interrupted(store, plain_docs, indices=(0, 2)):
    """What a killed run leaves behind: some finished tasks in ``store``."""
    for index in indices:
        store.store(PLAN[index], RunResult.from_dict(plain_docs[index]))


@pytest.fixture(scope="module")
def plain_docs():
    return _docs(execute_plan(PLAN))


class TestIdentity:
    def test_supervised_equals_plain(self, tmp_path, plain_docs):
        policy = DurabilityPolicy(run_root=tmp_path / "run", supervisor=FAST)
        supervised = execute_plan_supervised(PLAN, jobs=2, policy=policy)
        assert _docs(supervised) == plain_docs

    def test_checkpoints_and_private_results_retire_on_success(self, tmp_path, plain_docs):
        root = tmp_path / "run"
        policy = DurabilityPolicy(run_root=root, checkpoint_every=CHAOS_EVERY, supervisor=FAST)
        execute_plan_supervised(PLAN, jobs=2, policy=policy)
        assert not list((root / "checkpoints").glob("*.ckpt"))
        assert ResultStore(root / "results").entries() == []

    def test_results_store_and_progress(self, tmp_path, plain_docs):
        store = ResultStore(tmp_path / "cache")
        policy = DurabilityPolicy(run_root=tmp_path / "run", supervisor=FAST)
        seen = []
        results = execute_plan_supervised(
            PLAN, jobs=2, store=store,
            progress=lambda spec, result: seen.append(spec.label),
            policy=policy,
        )
        assert _docs(results) == plain_docs
        assert sorted(seen) == sorted(spec.label for spec in PLAN)
        # A second supervised execution resolves everything from the store.
        again = execute_plan_supervised(PLAN, jobs=2, store=store, policy=policy)
        assert all(r.from_cache for r in again)
        assert _docs(again) == plain_docs


class TestChaosRecovery:
    def test_kill_and_stall_recover_bit_identical(self, tmp_path, plain_docs):
        root = tmp_path / "run"
        policy = DurabilityPolicy(
            run_root=root,
            checkpoint_every=CHAOS_EVERY,
            supervisor=FAST,
            chaos=ChaosPlan(seed=1, kinds=("kill_worker", "stall_worker")),
        )
        results = execute_plan_supervised(PLAN, jobs=2, policy=policy)
        assert _docs(results) == plain_docs
        # Each kind fires once: the kill is a crash, the stall a stall, and
        # each failed attempt is retried.
        rows = _rows(root)
        failures = sorted(reason for row in rows for reason in row["failures"])
        assert failures == ["crash", "stall"]
        assert all(row["attempts"] == len(row["failures"]) for row in rows)
        assert all(row["state"] == "done" for row in rows)
        # A worker that never beats is a stall, not a slow spell first.
        assert all(row["slow"] == 0 for row in rows if "stall" in row["failures"])

    def test_truncated_checkpoint_recovers(self, tmp_path, plain_docs):
        policy = DurabilityPolicy(
            run_root=tmp_path / "run",
            checkpoint_every=CHAOS_EVERY,
            supervisor=FAST,
            chaos=ChaosPlan(seed=1, kinds=("kill_worker", "truncate_checkpoint")),
        )
        results = execute_plan_supervised(PLAN, jobs=2, policy=policy)
        assert _docs(results) == plain_docs

    def test_corrupt_cache_entry_recovers(self, tmp_path, plain_docs):
        store = ResultStore(tmp_path / "cache")
        policy = DurabilityPolicy(
            run_root=tmp_path / "run",
            supervisor=FAST,
            chaos=ChaosPlan(seed=1, kinds=("corrupt_cache_entry",)),
        )
        execute_plan_supervised(PLAN, jobs=2, store=store, policy=policy)
        # Exactly one entry was sabotaged post-store; a later session detects
        # it, degrades to a miss, recomputes and still matches.
        fresh = ResultStore(tmp_path / "cache")
        assert fresh.scan()["corrupt"] == 1
        again = execute_plan_supervised(
            PLAN, jobs=2, store=fresh,
            policy=DurabilityPolicy(run_root=tmp_path / "run", supervisor=FAST),
        )
        assert _docs(again) == plain_docs
        assert fresh.corrupt == 1


class TestResume:
    def test_rerun_replays_finished_tasks_from_the_store(self, tmp_path, plain_docs):
        store = ResultStore(tmp_path / "cache")
        _interrupted(store, plain_docs)
        root = tmp_path / "run"
        policy = DurabilityPolicy(run_root=root, supervisor=FAST)
        results = execute_plan_supervised(PLAN, jobs=2, store=store, policy=policy)
        assert _docs(results) == plain_docs
        # Tasks 0 and 2 replay; only task 1 is simulated and stored.
        assert [row["state"] for row in _rows(root)] == ["cached", "done", "cached"]
        assert (store.hits, store.stored) == (2, 3)

    def test_storeless_rerun_replays_the_private_store(self, tmp_path, plain_docs):
        root = tmp_path / "run"
        private = ResultStore(root / "results")
        _interrupted(private, plain_docs)
        policy = DurabilityPolicy(run_root=root, supervisor=FAST)
        results = execute_plan_supervised(PLAN, jobs=2, policy=policy)
        assert _docs(results) == plain_docs
        assert [row["state"] for row in _rows(root)] == ["cached", "done", "cached"]
        # The completed plan retires its private results.
        assert private.entries() == []

    def test_flipped_private_entry_byte_recomputes(self, tmp_path, plain_docs):
        root = tmp_path / "run"
        private = ResultStore(root / "results")
        _interrupted(private, plain_docs, indices=(0,))
        path = private.path_for(PLAN[0].fingerprint())
        data = bytearray(path.read_bytes())
        data[len(data) // 2] ^= 0x01
        path.write_bytes(bytes(data))
        policy = DurabilityPolicy(run_root=root, supervisor=FAST)
        results = execute_plan_supervised(PLAN, jobs=2, policy=policy)
        assert _docs(results) == plain_docs
        assert [row["state"] for row in _rows(root)] == ["done", "done", "done"]
        assert private.entries() == []


class TestDurableRunner:
    def test_interrupt_resume_identity(self, tmp_path, plain_docs):
        spec = PLAN[1]  # vortex/dyn: long enough to cross checkpoints
        ckpt = tmp_path / "run.ckpt"
        interrupted = run_spec_durable(
            spec, ckpt, checkpoint_every=60_000, stop_after_checkpoints=1
        )
        assert interrupted is None and ckpt.is_file()
        resumed = run_spec_durable(spec, ckpt, checkpoint_every=60_000)
        assert resumed.to_dict() == plain_docs[1]
        assert not ckpt.exists()

    def test_no_checkpoint_path_is_plain_sliced_run(self, plain_docs):
        result = run_spec_durable(PLAN[0], checkpoint_every=10_000)
        assert result.to_dict() == plain_docs[0]

    def test_execute_plan_durability_param_routes(self, tmp_path, plain_docs):
        policy = DurabilityPolicy(run_root=tmp_path / "run", supervisor=FAST)
        results = execute_plan(PLAN, jobs=2, durability=policy)
        assert _docs(results) == plain_docs


class TestStatusAndStallDistinction:
    def test_status_file_tracks_the_run_to_done(self, tmp_path, plain_docs):
        root = tmp_path / "run"
        policy = DurabilityPolicy(run_root=root, supervisor=FAST)
        execute_plan_supervised(PLAN, jobs=2, policy=policy)
        doc = read_status(root)
        assert doc["done"] is True
        assert doc["plan"] == PLAN.fingerprint()
        states = [task["state"] for task in doc["tasks"]]
        assert len(states) == len(PLAN) and set(states) <= {"done", "cached"}
        assert all(task["icount"] > 0 for task in doc["tasks"])
        assert all(task["failures"] == [] and task["slow"] == 0 for task in doc["tasks"])

    def test_slow_but_progressing_worker_is_spared(self, tmp_path, plain_docs):
        """Missed heartbeats with advancing slice stamps must not kill the
        worker: huge heartbeat_every makes every worker look quiet, but the
        simulation progresses, so the supervisor counts a slow spell and
        waits."""
        root = tmp_path / "run"
        policy = DurabilityPolicy(
            run_root=root,
            checkpoint_every=2000,
            supervisor=SupervisorConfig(
                task_timeout=120.0,
                stall_timeout=0.3,
                heartbeat_every=60.0,
                backoff_base=0.05,
            ),
        )
        supervised = execute_plan_supervised(PLAN, jobs=2, policy=policy)
        assert _docs(supervised) == plain_docs
        rows = _rows(root)
        assert sum(row["slow"] for row in rows) >= 1
        assert all(row["failures"] == [] for row in rows)
