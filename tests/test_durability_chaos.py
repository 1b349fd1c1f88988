"""Chaos harness: deterministic decisions, bounded damage, a record of firings.

Mirrors the :mod:`repro.resilience.faults` determinism contract at the
engine level: per-kind PRNG streams, draws consumed even when disabled or
capped, reproducible filesystem sabotage.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.durability.chaos import CHAOS_KINDS, ChaosInjector, ChaosPlan
from repro.engine.cache import ResultStore
from repro.engine.executor import run_spec
from repro.engine.spec import RunSpec
from repro.errors import ConfigError


class TestPlan:
    def test_round_trip(self):
        plan = ChaosPlan(seed=7, rate=0.5, kinds=("kill_worker",), max_per_kind=3)
        assert ChaosPlan.from_dict(plan.to_dict()) == plan

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"kinds": ("explode",)},
            {"rate": 1.5},
            {"rate": -0.1},
            {"max_per_kind": 0},
        ],
    )
    def test_bad_plan_rejected(self, kwargs):
        with pytest.raises(ConfigError):
            ChaosPlan(**kwargs)


class TestDeterminism:
    def test_equal_plans_fire_identically(self):
        a = ChaosInjector(ChaosPlan(seed=3, rate=0.5, max_per_kind=100))
        b = ChaosInjector(ChaosPlan(seed=3, rate=0.5, max_per_kind=100))
        for _ in range(50):
            for kind in CHAOS_KINDS:
                assert a.fire(kind) == b.fire(kind)
        assert a.fired == b.fired

    def test_kinds_draw_independently(self):
        # Consuming opportunities for one kind must not shift another's.
        solo = ChaosInjector(ChaosPlan(seed=5, rate=0.5, max_per_kind=100))
        mixed = ChaosInjector(ChaosPlan(seed=5, rate=0.5, max_per_kind=100))
        solo_decisions = [solo.fire("stall_worker") for _ in range(20)]
        mixed_decisions = []
        for _ in range(20):
            mixed.fire("kill_worker")
            mixed_decisions.append(mixed.fire("stall_worker"))
        assert solo_decisions == mixed_decisions

    def test_disabled_kind_consumes_draw(self):
        enabled = ChaosInjector(ChaosPlan(seed=9, rate=0.5, max_per_kind=100))
        limited = ChaosInjector(
            ChaosPlan(seed=9, rate=0.5, kinds=("stall_worker",), max_per_kind=100)
        )
        for _ in range(20):
            enabled.fire("kill_worker")
            limited.fire("kill_worker")  # disabled: draw still consumed
            assert enabled.fire("stall_worker") == limited.fire("stall_worker")

    def test_cap_bounds_firings(self):
        injector = ChaosInjector(ChaosPlan(seed=0, rate=1.0, max_per_kind=2))
        fired = sum(injector.fire("kill_worker") for _ in range(10))
        assert fired == 2
        assert injector.counts["kill_worker"] == 2

    def test_fired_records_each_fault(self):
        injector = ChaosInjector(ChaosPlan(seed=0))
        assert injector.fire("kill_worker", "vpr/dyn")
        assert not injector.fire("kill_worker", "mcf/dyn")  # capped at one
        assert injector.fire("stall_worker", "mcf/seq")
        assert injector.fired == [("kill_worker", "vpr/dyn"), ("stall_worker", "mcf/seq")]


class TestSabotage:
    def test_corrupt_file_flips_one_byte_deterministically(self, tmp_path):
        target = tmp_path / "victim.bin"
        payload = bytes(range(256)) * 4
        offsets = []
        for _ in range(2):
            target.write_bytes(payload)
            injector = ChaosInjector(ChaosPlan(seed=11))
            offsets.append(injector.corrupt_file(target, "corrupt_cache_entry"))
            mutated = target.read_bytes()
            assert len(mutated) == len(payload)
            diff = [i for i in range(len(payload)) if mutated[i] != payload[i]]
            assert diff == [offsets[-1]]
        assert offsets[0] == offsets[1]

    def test_corrupt_missing_file_returns_none(self, tmp_path):
        injector = ChaosInjector(ChaosPlan(seed=0))
        assert injector.corrupt_file(tmp_path / "absent", "corrupt_cache_entry") is None

    def test_truncate_file_halves(self, tmp_path):
        target = tmp_path / "victim.bin"
        target.write_bytes(b"x" * 100)
        injector = ChaosInjector(ChaosPlan(seed=0))
        assert injector.truncate_file(target) == 50
        assert target.stat().st_size == 50

    @settings(max_examples=25, deadline=None)
    @given(seed=st.integers(min_value=0, max_value=2**16))
    def test_any_seed_keeps_decisions_reproducible(self, seed):
        a = ChaosInjector(ChaosPlan(seed=seed, rate=0.3, max_per_kind=5))
        b = ChaosInjector(ChaosPlan(seed=seed, rate=0.3, max_per_kind=5))
        pattern = [(k, a.fire(k)) for _ in range(10) for k in CHAOS_KINDS]
        assert pattern == [(k, b.fire(k)) for _ in range(10) for k in CHAOS_KINDS]


class TestStoreDegradation:
    def test_corrupt_entry_degrades_to_miss_and_counts(self, tmp_path):
        store = ResultStore(tmp_path)
        spec = RunSpec("vortex", "orig", passes=1)
        run_spec(spec, store=store)
        injector = ChaosInjector(ChaosPlan(seed=1))
        assert injector.corrupt_file(store.path_for(spec.fingerprint()),
                                     "corrupt_cache_entry") is not None
        fresh = ResultStore(tmp_path)
        assert fresh.load(spec) is None
        assert fresh.corrupt == 1 and fresh.misses == 1
        assert fresh.scan()["corrupt"] == 1
        # Recompute repairs the entry in place.
        result = run_spec(spec, store=fresh)
        assert not result.from_cache
        assert fresh.scan()["corrupt"] == 0
