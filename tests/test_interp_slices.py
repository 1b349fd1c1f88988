"""Resumable execution: ``start()``/``run_slice()`` vs. one-shot ``run()``.

Slicing is the substrate the tenancy scheduler stands on, so its contract is
tested independently of tenancy: any sequence of slice budgets must be
observationally identical to a single uninterrupted run.
"""

import pytest

from repro.errors import ExecutionError
from repro.interp.interpreter import Interpreter
from repro.machine.config import CacheGeometry, MachineConfig
from repro.workloads.chainmix import build_chainmix

MACHINE = MachineConfig(
    l1=CacheGeometry(512, 2),
    l2=CacheGeometry(4096, 4),
    l2_latency=10,
    memory_latency=100,
)


@pytest.fixture
def fast():
    """The kernel under test: the default compiled kernel.

    ``tests/test_interpreter_reference.py`` collects these classes again
    with this fixture overridden, so the reference dispatch loop keeps its
    own slice tests.
    """
    return True


def _fresh(small_params):
    workload = build_chainmix(small_params)
    return Interpreter(workload.program, workload.memory, MACHINE), workload.args


def _run_sliced(interp, args, budget, fast):
    interp.start(args)
    slices = 0
    while True:
        out = interp.run_slice(budget, fast=fast)
        slices += 1
        if out is not None:
            return out, slices


class TestSliceEquivalence:
    def test_sliced_equals_oneshot(self, small_params, fast):
        interp, args = _fresh(small_params)
        whole = interp.run(args, fast=fast)
        for budget in (1, 7, 256, 100_000_000):
            interp, args = _fresh(small_params)
            sliced, slices = _run_sliced(interp, args, budget, fast)
            assert sliced.to_dict() == whole.to_dict()
            if budget == 1:
                assert slices == whole.instructions
            if budget == 100_000_000:
                assert slices == 1

    def test_hierarchy_counters_identical(self, small_params, fast):
        interp_a, args = _fresh(small_params)
        interp_a.run(args, fast=fast)
        interp_b, args = _fresh(small_params)
        _run_sliced(interp_b, args, 64, fast)
        for attr in ("hits", "misses", "evictions"):
            assert getattr(interp_a.hierarchy.l1, attr) == getattr(interp_b.hierarchy.l1, attr)
            assert getattr(interp_a.hierarchy.l2, attr) == getattr(interp_b.hierarchy.l2, attr)

    def test_clock_advance_between_slices(self, small_params, fast):
        # A scheduler may move the parked clock forward; the final stats
        # must report the advanced clock, not the tenant's own cycle sum.
        interp, args = _fresh(small_params)
        whole = interp.run(args, fast=fast)
        interp, args = _fresh(small_params)
        interp.start(args)
        advanced = 0
        out = interp.run_slice(1024, fast=fast)
        while out is None:
            interp.exec_state.cycles += 1000
            advanced += 1000
            out = interp.run_slice(1024, fast=fast)
        assert out.cycles == whole.cycles + advanced
        assert out.instructions == whole.instructions
        assert out.return_value == whole.return_value


class TestSliceGuards:
    def test_run_slice_before_start(self, small_params, fast):
        interp, _args = _fresh(small_params)
        with pytest.raises(ExecutionError, match="before start"):
            interp.run_slice(10, fast=fast)

    def test_run_slice_after_finish(self, small_params, fast):
        interp, args = _fresh(small_params)
        _run_sliced(interp, args, 1 << 40, fast)
        with pytest.raises(ExecutionError, match="finished"):
            interp.run_slice(10, fast=fast)

    def test_bad_budget(self, small_params, fast):
        interp, args = _fresh(small_params)
        interp.start(args)
        with pytest.raises(ExecutionError, match="budget"):
            interp.run_slice(0, fast=fast)

    def test_run_still_enforces_limit(self, small_params, fast):
        interp, args = _fresh(small_params)
        with pytest.raises(ExecutionError, match="instruction limit"):
            interp.run(args, max_instructions=100, fast=fast)
