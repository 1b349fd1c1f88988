"""Supervised plan execution: identity, recovery, resume.

Everything here pins one claim: whatever the supervisor survives — crashes,
stalls, torn checkpoints, corrupt journals — its results are bit-identical
to plain serial execution.
"""

import pytest

from repro.durability import ChaosPlan, DurabilityPolicy, SupervisorConfig
from repro.durability.journal import RunJournal, journal_path, plan_fingerprint
from repro.durability.runner import run_spec_durable
from repro.durability.supervisor import execute_plan_supervised
from repro.engine.cache import ResultStore
from repro.engine.executor import execute_plan
from repro.engine.spec import RunPlan, RunSpec
from repro.telemetry.events import EventBus
from repro.telemetry.sinks import ListSink

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


def _bus():
    events = ListSink()
    bus = EventBus()
    bus.attach(events)
    return bus, events


@pytest.fixture(scope="module")
def plain_docs():
    return _docs(execute_plan(PLAN))


class TestIdentity:
    def test_supervised_equals_plain(self, tmp_path, plain_docs):
        policy = DurabilityPolicy(journal_root=tmp_path / "journal", supervisor=FAST)
        supervised = execute_plan_supervised(PLAN, jobs=2, policy=policy)
        assert _docs(supervised) == plain_docs

    def test_journal_and_checkpoints_retire_on_success(self, tmp_path, plain_docs):
        root = tmp_path / "journal"
        policy = DurabilityPolicy(journal_root=root, supervisor=FAST)
        execute_plan_supervised(PLAN, jobs=2, policy=policy)
        assert not journal_path(root, plan_fingerprint(PLAN)).exists()
        assert not list((root / "checkpoints").glob("*.ckpt"))

    def test_results_store_and_progress(self, tmp_path, plain_docs):
        store = ResultStore(tmp_path / "cache")
        policy = DurabilityPolicy(journal_root=tmp_path / "journal", supervisor=FAST)
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
        bus, events = _bus()
        policy = DurabilityPolicy(
            journal_root=tmp_path / "journal",
            checkpoint_every=CHAOS_EVERY,
            supervisor=FAST,
            chaos=ChaosPlan(seed=1, kinds=("kill_worker", "stall_worker")),
            bus=bus,
        )
        results = execute_plan_supervised(PLAN, jobs=2, policy=policy)
        assert _docs(results) == plain_docs
        counts = events.counts()
        assert counts.get("ChaosInjected", 0) == 2
        assert counts.get("TaskRetried", 0) >= 1
        # One kill -> WorkerCrashed, one stall -> WorkerTimedOut(stall).
        assert counts.get("WorkerCrashed", 0) >= 1
        assert counts.get("WorkerTimedOut", 0) >= 1

    def test_truncated_checkpoint_recovers(self, tmp_path, plain_docs):
        bus, events = _bus()
        policy = DurabilityPolicy(
            journal_root=tmp_path / "journal",
            checkpoint_every=CHAOS_EVERY,
            supervisor=FAST,
            chaos=ChaosPlan(seed=1, kinds=("kill_worker", "truncate_checkpoint")),
            bus=bus,
        )
        results = execute_plan_supervised(PLAN, jobs=2, policy=policy)
        assert _docs(results) == plain_docs

    def test_corrupt_cache_entry_recovers(self, tmp_path, plain_docs):
        store = ResultStore(tmp_path / "cache")
        policy = DurabilityPolicy(
            journal_root=tmp_path / "journal",
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
            policy=DurabilityPolicy(journal_root=tmp_path / "journal", supervisor=FAST),
        )
        assert _docs(again) == plain_docs
        assert fresh.corrupt == 1


class TestResume:
    def test_journal_resume_skips_finished_tasks(self, tmp_path, plain_docs):
        root = tmp_path / "journal"
        plan_fp = plan_fingerprint(PLAN)
        # Simulate an interrupted run: tasks 0 and 2 journaled, then death.
        journal = RunJournal(journal_path(root, plan_fp))
        journal.plan_begin(plan_fp, len(PLAN))
        journal.task_done(0, PLAN[0].fingerprint(), plain_docs[0])
        journal.task_done(2, PLAN[2].fingerprint(), plain_docs[2])
        bus, events = _bus()
        policy = DurabilityPolicy(
            journal_root=root, resume=True, supervisor=FAST, bus=bus,
        )
        results = execute_plan_supervised(PLAN, jobs=2, policy=policy)
        assert _docs(results) == plain_docs
        replayed = [e for e in events.events if e.kind == "JournalReplayed"]
        assert len(replayed) == 1 and replayed[0].replayed == 2
        assert not journal.path.exists()

    def test_flipped_journal_byte_recomputes(self, tmp_path, plain_docs):
        root = tmp_path / "journal"
        plan_fp = plan_fingerprint(PLAN)
        journal = RunJournal(journal_path(root, plan_fp))
        journal.task_done(0, PLAN[0].fingerprint(), plain_docs[0])
        data = bytearray(journal.path.read_bytes())
        data[len(data) // 2] ^= 0x01
        journal.path.write_bytes(bytes(data))
        bus, events = _bus()
        policy = DurabilityPolicy(
            journal_root=root, resume=True, supervisor=FAST, bus=bus,
        )
        results = execute_plan_supervised(PLAN, jobs=2, policy=policy)
        assert _docs(results) == plain_docs
        replayed = [e for e in events.events if e.kind == "JournalReplayed"]
        assert len(replayed) == 1
        assert replayed[0].corrupt == 1 and replayed[0].replayed == 0

    def test_resume_without_journal_is_fresh_run(self, tmp_path, plain_docs):
        policy = DurabilityPolicy(
            journal_root=tmp_path / "journal", resume=True, supervisor=FAST,
        )
        assert _docs(execute_plan_supervised(PLAN, jobs=2, policy=policy)) == plain_docs


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
        policy = DurabilityPolicy(journal_root=tmp_path / "journal", supervisor=FAST)
        results = execute_plan(PLAN, jobs=2, durability=policy)
        assert _docs(results) == plain_docs


class TestStatusAndStallDistinction:
    def test_status_file_tracks_the_run_to_done(self, tmp_path, plain_docs):
        from repro.obs.status import read_status

        root = tmp_path / "journal"
        policy = DurabilityPolicy(journal_root=root, supervisor=FAST)
        execute_plan_supervised(PLAN, jobs=2, policy=policy)
        doc = read_status(root)
        assert doc["done"] is True
        assert doc["plan"] == plan_fingerprint(PLAN)
        states = [task["state"] for task in doc["tasks"]]
        assert len(states) == len(PLAN) and set(states) <= {"done", "cached"}
        assert all(task["icount"] > 0 for task in doc["tasks"])

    def test_slow_but_progressing_worker_is_spared(self, tmp_path, plain_docs):
        """Missed heartbeats with advancing slice stamps must not kill the
        worker: huge heartbeat_every makes every worker look quiet, but the
        simulation progresses, so the supervisor logs WorkerSlow and waits."""
        bus, events = _bus()
        policy = DurabilityPolicy(
            journal_root=tmp_path / "journal",
            checkpoint_every=2000,
            supervisor=SupervisorConfig(
                task_timeout=120.0,
                stall_timeout=0.3,
                heartbeat_every=60.0,
                backoff_base=0.05,
            ),
            bus=bus,
        )
        supervised = execute_plan_supervised(PLAN, jobs=2, policy=policy)
        assert _docs(supervised) == plain_docs
        counts = events.counts()
        assert counts.get("WorkerSlow", 0) >= 1
        assert counts.get("WorkerTimedOut", 0) == 0
        assert counts.get("WorkerCrashed", 0) == 0
