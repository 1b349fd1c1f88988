"""The fuzz driver's shrinker: minimal reproducers from planted bugs."""

import random

import pytest

from repro.errors import OracleError
from repro.machine.config import CacheGeometry
from repro.oracle import RefCache, check_with_shrinking, shrink_ops
from repro.oracle.fuzz import diff_sequitur, gen_periodic_trace
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
