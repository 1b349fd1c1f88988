"""Fastpath × durability: checkpoints are kernel-agnostic.

A checkpoint written mid-run must not care which kernel produced it or which
kernel resumes it: compiled code is cached outside the pickled interpreter
(weak-keyed on procedure objects) and rebuilt on first use after a restore.
So every kernel combination — checkpoint fast / resume reference, checkpoint
reference / resume fast, chaos-supervised plans on the default compiled
kernel — must land on results byte-identical to a plain serial reference run.
"""

import json

import pytest

from repro.durability import ChaosPlan, DurabilityPolicy, SupervisorConfig
from repro.durability.checkpoint import save_checkpoint
from repro.durability.runner import run_spec_durable
from repro.durability.supervisor import execute_plan_supervised
from repro.engine.levels import execute_workload, prepare_workload
from repro.engine.spec import RunPlan, RunSpec
from repro.workloads.chainmix import build_chainmix

#: vortex/dyn is long enough to cross several 60k-instruction checkpoints.
SPEC = RunSpec("vortex", "dyn", passes=1)
PLAN = RunPlan.of(
    RunSpec("vortex", "orig", passes=1),
    RunSpec("vortex", "dyn", passes=1),
    RunSpec("mcf", "orig", passes=1),
)
FAST_SUPERVISOR = SupervisorConfig(task_timeout=120.0, stall_timeout=2.0, backoff_base=0.05)
EVERY = 60_000


@pytest.fixture(scope="module")
def reference_doc():
    return run_spec_durable(SPEC, checkpoint_every=EVERY, fast=False).to_dict()


@pytest.fixture(scope="module")
def plain_docs():
    return [
        execute_workload(s.build(), s.level, s.machine, s.opt, fast=False).to_dict()
        for s in PLAN
    ]


class TestKernelCrossResume:
    @pytest.mark.parametrize(
        "save_fast,resume_fast",
        [(True, False), (False, True), (True, True)],
        ids=["fast-then-reference", "reference-then-fast", "fast-then-fast"],
    )
    def test_interrupt_under_one_kernel_resume_under_other(
        self, tmp_path, reference_doc, save_fast, resume_fast
    ):
        ckpt = tmp_path / "run.ckpt"
        interrupted = run_spec_durable(
            SPEC, ckpt, checkpoint_every=EVERY, stop_after_checkpoints=1, fast=save_fast
        )
        assert interrupted is None and ckpt.is_file()
        resumed = run_spec_durable(SPEC, ckpt, checkpoint_every=EVERY, fast=resume_fast)
        assert resumed.to_dict() == reference_doc
        assert not ckpt.exists()

    def test_sliced_fast_run_without_checkpoint_path(self, reference_doc):
        result = run_spec_durable(SPEC, checkpoint_every=10_000, fast=True)
        assert result.to_dict() == reference_doc


class TestCheckpointBytes:
    def test_same_park_point_same_payload_digest(self, small_params, tiny_machine, tmp_path):
        """Parking at the same instruction under either kernel must pickle
        to the *same* checkpoint payload: the fastpath leaves no residue in
        the architectural or statistical state it snapshots."""
        digests = {}
        for fast in (False, True):
            prepared = prepare_workload(build_chainmix(small_params), "dyn", tiny_machine)
            prepared.interp.start(prepared.args)
            assert prepared.interp.run_slice(2_000, fast=fast) is None
            path = tmp_path / f"park-{fast}.ckpt"
            save_checkpoint(
                path, prepared.interp, prepared.summary,
                workload="small", level="dyn", fingerprint="f" * 64,
            )
            header_line, _, payload = path.read_bytes().partition(b"\n")
            header = json.loads(header_line)
            digests[fast] = (header["icount"], header["sha256"], payload)
        assert digests[True] == digests[False]


class TestSupervisedFastpath:
    def test_supervised_plan_with_fastpath_env(self, tmp_path, plain_docs):
        """Supervised workers execute the default compiled kernel."""
        policy = DurabilityPolicy(journal_root=tmp_path / "journal", supervisor=FAST_SUPERVISOR)
        supervised = execute_plan_supervised(PLAN, jobs=2, policy=policy)
        assert [r.to_dict() for r in supervised] == plain_docs

    def test_chaos_with_fastpath_env(self, tmp_path, plain_docs):
        """Worker SIGKILLs + torn checkpoints, workers executing through the
        default compiled kernel: results still match the plain serial
        reference."""
        policy = DurabilityPolicy(
            journal_root=tmp_path / "journal",
            checkpoint_every=250_000,  # vortex/dyn writes one checkpoint to hit
            supervisor=FAST_SUPERVISOR,
            chaos=ChaosPlan(seed=1, kinds=("kill_worker", "truncate_checkpoint")),
        )
        supervised = execute_plan_supervised(PLAN, jobs=2, policy=policy)
        assert [r.to_dict() for r in supervised] == plain_docs
