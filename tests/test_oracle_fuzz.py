"""The fuzz drivers: minimal reproducers from planted bugs, and the
compiled kernel's differential."""

import ast
import functools
import random
from collections import Counter

import pytest

from repro.errors import OracleError
from repro.fastpath import compiler
from repro.machine.config import CacheGeometry
from repro.machine.hierarchy import MemoryHierarchy
from repro.oracle import RefCache, check_with_shrinking, gen_hierarchy_ops, shrink_ops
from repro.oracle.fuzz import (
    KERNEL_FALLBACK,
    KERNEL_INLINE,
    KERNEL_SAMPLED,
    diff_kernel,
    diff_sequitur,
    gen_periodic_trace,
    kernel_case,
)
from repro.oracle.verify import STRESS_MACHINE
from repro.sequitur import Sequitur

#: 4 sets x 2 ways: constant conflict pressure.
GEOMETRY = CacheGeometry(size_bytes=256, associativity=2, block_bytes=32)
_OPS = ("lookup", "install", "contains", "invalidate", "flush")
_WEIGHTS = (45, 35, 10, 8, 2)


def gen_cache_ops(rng, count):
    """Random single-cache ops over a pool of twice the cache's capacity."""
    pool = 2 * GEOMETRY.num_sets * GEOMETRY.associativity
    return [
        (rng.choices(_OPS, weights=_WEIGHTS)[0], rng.randrange(pool)) for _ in range(count)
    ]


class PromotingContainsCache(RefCache):
    """Planted bug: the silent membership probe promotes to MRU."""

    def contains(self, block):
        bucket = self._set_for(block)
        if block in bucket:
            bucket[block] = self._tick()
            return True
        return False


def diff_against_buggy(ops):
    buggy = PromotingContainsCache(GEOMETRY)
    ref = RefCache(GEOMETRY)
    for i, (kind, block) in enumerate(ops):
        if kind == "flush":
            buggy.flush()
            ref.flush()
            continue
        if getattr(buggy, kind)(block) != getattr(ref, kind)(block):
            raise OracleError(f"op #{i} {kind}({block}) return mismatch")
    for s in range(GEOMETRY.num_sets):
        if buggy.lru_order(s) != ref.lru_order(s):
            raise OracleError(f"set {s} LRU order mismatch")


class TestShrinkOps:
    def test_shrinks_to_exact_witness_pair(self):
        """Predicate needs {3, 7} as a subsequence; ddmin must find exactly it."""
        ops = [("x", v) for v in [9, 3, 1, 4, 7, 5, 3, 8]]

        def fails(seq):
            values = [v for _, v in seq]
            return 3 in values and 7 in values

        minimal = shrink_ops(ops, fails)
        assert sorted(v for _, v in minimal) == [3, 7]

    def test_rejects_passing_input(self):
        with pytest.raises(OracleError, match="does not fail"):
            shrink_ops([("x", 1)], lambda seq: False)

    def test_result_is_one_minimal(self):
        """No single op of the shrunk sequence can be removed and still fail."""
        rng = random.Random(3)
        ops = None
        for _ in range(10):
            candidate = gen_cache_ops(rng, 400)
            try:
                diff_against_buggy(candidate)
            except OracleError:
                ops = candidate
                break
        assert ops is not None, "planted bug never triggered; generator too tame?"

        def fails(seq):
            try:
                diff_against_buggy(seq)
            except OracleError:
                return True
            return False

        minimal = shrink_ops(ops, fails)
        assert fails(minimal)
        for i in range(len(minimal)):
            assert not fails(minimal[:i] + minimal[i + 1 :]), (
                f"dropping op {i} of {minimal} still fails: not 1-minimal"
            )
        # The planted bug needs an install/install/contains triangle at least.
        assert len(minimal) <= 5


class TestCheckWithShrinking:
    def test_passes_silently_on_correct_code(self):
        rng = random.Random(0)
        ops = gen_cache_ops(rng, 200)
        check_with_shrinking(
            ops,
            lambda seq: None,  # a check that never fails
            "noop",
        )

    def test_reports_minimal_reproducer(self):
        rng = random.Random(3)
        for _ in range(10):
            ops = gen_cache_ops(rng, 400)
            try:
                diff_against_buggy(ops)
            except OracleError:
                break
        with pytest.raises(OracleError, match="minimal reproducer") as exc_info:
            check_with_shrinking(ops, diff_against_buggy, "planted bug")
        message = str(exc_info.value)
        assert "planted bug" in message
        assert "ops = [" in message  # replayable literal embedded
        # The chained original failure is preserved for context.
        assert isinstance(exc_info.value.__cause__, OracleError)


class TestGenPeriodicTrace:
    def test_deterministic_bounded_and_exact_length(self):
        trace = gen_periodic_trace(random.Random(5), 500, alphabet=12)
        assert trace == gen_periodic_trace(random.Random(5), 500, alphabet=12)
        assert len(trace) == 500
        assert set(trace) <= set(range(12))

    def test_builds_long_rule_bodies_the_references_agree_on(self):
        rng = random.Random(0)
        longest = 0
        for _ in range(5):
            trace = gen_periodic_trace(rng, 600, alphabet=32)
            diff_sequitur(trace)
            seq = Sequitur()
            seq.extend_batch(trace)
            longest = max(
                longest, max(r.rhs_length() for r in seq.rules.values() if r is not seq.start)
            )
        assert longest >= 15


class TestKernelDifferential:
    """diff_kernel: the compiled kernel's inline memory paths against the
    reference dispatch loop, on the hierarchy section's op sequences."""

    @pytest.fixture(autouse=True)
    def _fresh_kernels(self):
        compiler.clear_cache()
        yield
        compiler.clear_cache()

    @staticmethod
    def caught_and_shrunk() -> list:
        """The 1-minimal reproducer the differential shrinks the first
        failing seed-0 input to, on the kernel as currently patched."""
        rng = random.Random(0)
        for _ in range(25):
            ops = gen_hierarchy_ops(rng, 300, STRESS_MACHINE)
            try:
                diff_kernel(STRESS_MACHINE, ops)
            except OracleError:
                break
        else:
            pytest.fail("the mutated kernel passed every seed-0 input")
        with pytest.raises(OracleError, match="minimal reproducer") as exc_info:
            check_with_shrinking(
                ops, lambda seq: diff_kernel(STRESS_MACHINE, seq), "kernel differential"
            )
        message = str(exc_info.value)
        assert "compiled kernel and reference loop differ" in message
        return ast.literal_eval(message.split("ops = ", 1)[1])

    def test_removed_l2_victim_guard_is_caught_and_shrunk(self, monkeypatch):
        """A demand miss that evicts an unused prefetch from L2 inline skips
        its wasted classification; the differential must flag the kernel
        and shrink the input to a replayable reproducer."""
        guard = (
            "if pf_unused and len(way2) >= l2_assoc and way2[0] in pf_unused"
            " and block not in way2 or bus_on and _sampled_miss(lane):"
        )
        path = [
            line.replace(guard, "if bus_on and _sampled_miss(lane):")
            for line in compiler._MEMORY_PATH
        ]
        assert path != compiler._MEMORY_PATH
        monkeypatch.setattr(compiler, "_MEMORY_PATH", path)
        minimal = self.caught_and_shrunk()
        assert len(minimal) < 10 and minimal[-1][0] == "access"

    @pytest.mark.parametrize("step", ("miss countdown", "use ledger hook", "issue countdown"))
    def test_skipped_observation_step_is_caught_and_shrunk(self, step, monkeypatch):
        """An inline case that skips one observation step on an observed
        lane leaves the reference loop's event log, ledger or countdowns
        behind; the observed-lane differential must catch it."""
        if step == "miss countdown":
            def sampled_miss(lane):
                return lane.misses_since + 1 >= lane.miss_sample_every

            monkeypatch.setattr(compiler, "_sampled_miss", sampled_miss)
        elif step == "use ledger hook":
            monkeypatch.setattr(compiler, "_sampled_use", _without_ledger(compiler._sampled_use))
        else:
            prefetch_observed = compiler._prefetch_observed

            def without_countdown_step(ctx, addr, now, source):
                since = ctx.lane.issued_since
                prefetch_observed(ctx, addr, now, source)
                if ctx.lane.issued_since == since + 1:  # stepped, not sampled
                    ctx.lane.issued_since = since

            monkeypatch.setattr(compiler, "_prefetch_observed", without_countdown_step)
        minimal = self.caught_and_shrunk()
        assert len(minimal) < 10

    def test_seed_zero_inputs_reach_every_case(self, monkeypatch):
        """Every case the inline paths decide, and every case they leave to
        the hierarchy, occurs in the section's first seed-0 input."""
        cases: Counter = Counter()
        wasted = []

        def classify(kind, method):
            # A class-level wrapper sees the reference loop's calls; the
            # compiled kernel calls the import-time methods directly.
            @functools.wraps(method)
            def wrapper(self, addr, now, *rest):
                cases[kernel_case(self, kind, addr, now)] += 1
                return method(self, addr, now, *rest)

            return wrapper

        def waste(method):
            @functools.wraps(method)
            def wrapper(self, victim, now):
                wasted.append(victim)
                return method(self, victim, now)

            return wrapper

        monkeypatch.setattr(
            MemoryHierarchy, "access", classify("access", MemoryHierarchy.access)
        )
        monkeypatch.setattr(
            MemoryHierarchy,
            "issue_prefetch",
            classify("prefetch", MemoryHierarchy.issue_prefetch),
        )
        monkeypatch.setattr(MemoryHierarchy, "_waste", waste(MemoryHierarchy._waste))
        ops = gen_hierarchy_ops(random.Random(0), 300, STRESS_MACHINE)
        for tenant in (0, 1):
            diff_kernel(STRESS_MACHINE, ops, tenant)
        assert set(cases) == set(KERNEL_INLINE) | set(KERNEL_FALLBACK) | set(KERNEL_SAMPLED)
        assert wasted


def _without_ledger(sampled_use):
    """``_sampled_use`` as if its lane had no ledger attached."""
    @functools.wraps(sampled_use)
    def wrapper(lane, *args):
        ledger, lane.ledger = lane.ledger, None
        try:
            return sampled_use(lane, *args)
        finally:
            lane.ledger = ledger

    return wrapper
