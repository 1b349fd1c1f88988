"""Metamorphic whole-run invariants (conservation, observer effect, relabel)."""

import random

import pytest

from repro.bench.runner import run_workload
from repro.errors import OracleError
from repro.oracle import (
    check_architectural_state,
    check_conservation,
    check_cycle_attribution,
    check_disabled_resilience_identical,
    check_observer_effect,
    check_relabel_invariance,
    check_tracing_observer_effect,
    relabel_stride,
    run_fingerprint,
)
from repro.oracle.fuzz import gen_hierarchy_ops
from repro.oracle.verify import STRESS_MACHINE
from repro.workloads.chainmix import build_chainmix


@pytest.fixture
def factory(small_params):
    return lambda: build_chainmix(small_params)


class TestConservation:
    @pytest.mark.parametrize("level", ["orig", "prof", "dyn"])
    def test_holds_on_small_runs(self, factory, tiny_machine, small_opt, level):
        result = run_workload(factory(), level, machine=tiny_machine, opt=small_opt)
        check_conservation(result)

    def test_detects_tampered_counters(self, factory, tiny_machine, small_opt):
        result = run_workload(factory(), "dyn", machine=tiny_machine, opt=small_opt)
        result.hierarchy.prefetch.issued += 1
        with pytest.raises(OracleError, match="not conserved"):
            check_conservation(result)


class TestBitIdenticalToggles:
    def test_observer_effect(self, factory, tiny_machine, small_opt):
        check_observer_effect(factory, machine=tiny_machine, opt=small_opt)

    def test_inert_fault_plan(self, factory, tiny_machine, small_opt):
        check_disabled_resilience_identical(factory, machine=tiny_machine, opt=small_opt)

    def test_architectural_state_preserved(self, factory, tiny_machine, small_opt):
        check_architectural_state(factory, machine=tiny_machine, opt=small_opt)

    def test_fingerprint_covers_caches_and_prefetch(self, factory, tiny_machine, small_opt):
        fp = run_fingerprint(run_workload(factory(), "dyn", machine=tiny_machine, opt=small_opt))
        for key in ("cycles", "l1.hits", "l2.misses", "issued", "useful", "return_value"):
            assert key in fp

    def test_tracing_observer_effect(self, factory, tiny_machine, small_opt):
        check_tracing_observer_effect(factory, machine=tiny_machine, opt=small_opt)


class TestCycleAttribution:
    @pytest.mark.parametrize("level", ["orig", "base", "prof", "dyn"])
    def test_holds_on_small_runs(self, factory, tiny_machine, small_opt, level):
        result = run_workload(factory(), level, machine=tiny_machine, opt=small_opt)
        check_cycle_attribution(result, machine=tiny_machine)

    def test_detects_tampered_counters(self, factory, tiny_machine, small_opt):
        result = run_workload(factory(), "dyn", machine=tiny_machine, opt=small_opt)
        result.stats.trace_charges += 1
        with pytest.raises(OracleError, match="not conserved"):
            check_cycle_attribution(result, machine=tiny_machine)


class TestRelabelInvariance:
    def test_stride_preserves_both_set_mappings(self):
        stride = relabel_stride(STRESS_MACHINE)
        block = stride // STRESS_MACHINE.block_bytes
        assert block % STRESS_MACHINE.l1.num_sets == 0
        assert block % STRESS_MACHINE.l2.num_sets == 0

    @pytest.mark.parametrize("seed", [0, 11, 23])
    def test_random_traces_invariant(self, seed):
        rng = random.Random(seed)
        ops = gen_hierarchy_ops(rng, 300, STRESS_MACHINE)
        check_relabel_invariance(STRESS_MACHINE, ops)

    def test_non_stride_shift_actually_matters(self):
        """Sanity check that the invariant is not vacuous: a half-block shift
        re-partitions addresses into blocks and CAN change behaviour, so
        agreement under stride shifts is a real statement, not a tautology
        that holds for every offset."""
        rng = random.Random(4)
        misaligned = STRESS_MACHINE.block_bytes // 2
        found_difference = False
        for _ in range(20):
            ops = gen_hierarchy_ops(rng, 300, STRESS_MACHINE)

            def stalls(offset):
                from repro.machine.hierarchy import MemoryHierarchy

                hier = MemoryHierarchy(STRESS_MACHINE)
                now, out = 0, []
                for kind, addr in ops:
                    now += 1
                    if kind == "access":
                        s = hier.access(addr + offset, now)
                        out.append(s)
                        now += s
                    elif kind == "prefetch":
                        hier.issue_prefetch(addr + offset, now)
                    elif kind == "flush":
                        hier.flush(now)
                    else:
                        hier.finalize(now)
                return out

            if stalls(0) != stalls(misaligned):
                found_difference = True
                break
        assert found_difference, "half-block shifts never changed anything; invariant vacuous?"


class TestCheckpointResume:
    def test_detects_a_runner_that_never_loads_checkpoints(self, monkeypatch):
        """A recompute-from-start resume is bit-identical too, so only the
        first progress sample can tell it from a real resume."""
        from repro.durability import runner
        from repro.durability.checkpoint import CheckpointError
        from repro.oracle.invariants import check_checkpoint_resume_identity

        def never_loads(path, fingerprint=None):
            raise CheckpointError("digest", f"{path}: refused")

        monkeypatch.setattr(runner, "load_checkpoint", never_loads)
        with pytest.raises(OracleError, match="first slice ended at icount"):
            check_checkpoint_resume_identity()
