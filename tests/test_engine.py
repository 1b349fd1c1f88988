"""The experiment engine: specs, fingerprints, the result cache, the executor.

The load-bearing property throughout is *bit-identity*: a cached replay, a
pooled parallel run and a plain serial run must all produce byte-for-byte
equal serialized results.  The figures/verify layers lean on that to use the
cache and ``--jobs`` freely without changing any rendered output.
"""

from __future__ import annotations

import hashlib
import json
from concurrent.futures import Future
from dataclasses import replace

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.core.config import OptimizerConfig
from repro.engine import (
    LEVELS,
    ResultStore,
    RunPlan,
    RunSpec,
    configure_level,
    execute_plan,
    get_level,
    level_names,
    register_level,
    run_spec,
)
from repro.engine.levels import LevelSpec
from repro.engine.spec import CACHE_SALT_ENV
from repro.errors import ConfigError
from repro.telemetry.session import TelemetrySession

#: The cheapest preset: every live run in this file uses it at one pass.
_WORKLOAD = "vortex"


def _spec(level: str = "dyn", **kwargs) -> RunSpec:
    return RunSpec(_WORKLOAD, level, passes=1, **kwargs)


# --------------------------------------------------------------------- specs


def test_runspec_roundtrip():
    spec = _spec(opt=replace(OptimizerConfig(), head_len=3))
    clone = RunSpec.from_dict(spec.to_dict())
    assert clone == spec
    assert clone.fingerprint() == spec.fingerprint()


def test_runspec_rejects_foreign_format():
    doc = _spec().to_dict()
    doc["format"] = 99
    with pytest.raises(ConfigError, match="format"):
        RunSpec.from_dict(doc)


def test_runspec_unknown_workload_is_config_error():
    with pytest.raises(ConfigError):
        RunSpec("warp-core", "dyn").build()


def test_fingerprint_is_deterministic_and_spec_sensitive():
    assert _spec().fingerprint() == _spec().fingerprint()
    assert _spec().fingerprint() != _spec(level="orig").fingerprint()
    assert _spec().fingerprint() != RunSpec(_WORKLOAD, "dyn", passes=2).fingerprint()


def test_fingerprint_normalizes_opt_for_levels_that_ignore_it():
    tuned = replace(OptimizerConfig(), head_len=3)
    # orig never consults the optimizer: sweeping it must share one entry.
    assert _spec("orig", opt=tuned).fingerprint() == _spec("orig").fingerprint()
    # dyn does consult it: the fingerprint must move.
    assert _spec("dyn", opt=tuned).fingerprint() != _spec("dyn").fingerprint()


def test_fingerprint_salt_env_forces_cold_cache(monkeypatch):
    before = _spec().fingerprint()
    monkeypatch.setenv(CACHE_SALT_ENV, "rotate-1")
    assert _spec().fingerprint() != before


def test_runplan_is_ordered_and_indexable():
    plan = RunPlan.of(_spec("orig"), _spec("dyn"))
    assert len(plan) == 2
    assert [s.level for s in plan] == ["orig", "dyn"]
    assert plan[1].level == "dyn"


def test_runplan_fingerprint_is_deterministic_and_order_sensitive():
    a = RunPlan.of(RunSpec("vpr", "orig"), RunSpec("vpr", "dyn"))
    b = RunPlan.of(RunSpec("vpr", "orig"), RunSpec("vpr", "dyn"))
    swapped = RunPlan.of(RunSpec("vpr", "dyn"), RunSpec("vpr", "orig"))
    assert a.fingerprint() == b.fingerprint()
    assert a.fingerprint() != swapped.fingerprint()
    # sha256 over the spec fingerprints, each NUL-terminated (the status
    # document's ``plan`` value).
    joined = b"".join(spec.fingerprint().encode() + b"\0" for spec in a)
    assert a.fingerprint() == hashlib.sha256(joined).hexdigest()


# ------------------------------------------------------------ level registry


def test_level_registry_matches_ladder():
    assert tuple(level_names()) == LEVELS
    assert get_level("dyn").uses_opt
    assert not get_level("orig").uses_opt


def test_unknown_level_raises():
    with pytest.raises(ConfigError, match="unknown level"):
        get_level("warp9")


def test_duplicate_registration_raises():
    with pytest.raises(ConfigError, match="already registered"):
        register_level(LevelSpec(name="dyn"))


def test_configure_level_semantics():
    opt = OptimizerConfig()
    assert configure_level("prof", opt) == replace(opt, analyze=False, inject=False)
    assert configure_level("hds", opt) == replace(opt, analyze=True, inject=False)
    assert configure_level("nopref", opt).mode == "nopref"
    assert configure_level("seq", opt).mode == "seq"
    assert configure_level("dyn", opt).mode == "dyn"
    with pytest.raises(ConfigError, match="does not use an optimizer config"):
        configure_level("orig", opt)


# ---------------------------------------------------------------- the cache


def test_cache_replay_is_bit_identical(tmp_path):
    store = ResultStore(tmp_path / "cache")
    spec = _spec()
    live = run_spec(spec, store=store)
    replay = run_spec(spec, store=store)
    assert not live.from_cache
    assert replay.from_cache
    assert replay.to_dict() == live.to_dict()
    assert (store.hits, store.misses, store.stored) == (1, 1, 1)


def test_cache_corrupt_entry_degrades_to_miss(tmp_path):
    store = ResultStore(tmp_path / "cache")
    spec = _spec()
    path = store.store(spec, run_spec(spec))
    path.write_text("{ truncated")
    assert store.load(spec) is None

    doc = json.loads(store.store(spec, run_spec(spec)).read_text())
    doc["format"] = 99
    path.write_text(json.dumps(doc))
    assert store.load(spec) is None


@pytest.fixture(scope="module")
def orig_result():
    return run_spec(_spec("orig"))


@settings(
    max_examples=30,
    deadline=None,
    suppress_health_check=[HealthCheck.function_scoped_fixture],
)
@given(offset_frac=st.floats(min_value=0.0, max_value=1.0, exclude_max=True))
def test_cache_any_flipped_byte_is_detected_and_repaired(
    tmp_path_factory, orig_result, offset_frac
):
    """Property: flip ANY single byte of a stored entry — ``load`` returns
    None (never a different result), the entry counts as corrupt in the
    session and in ``scan()``, and a rerun repairs it."""
    store = ResultStore(tmp_path_factory.mktemp("cache"))
    spec = _spec("orig")
    path = store.store(spec, orig_result)
    data = bytearray(path.read_bytes())
    data[int(offset_frac * len(data))] ^= 0x01
    path.write_bytes(bytes(data))
    assert store.load(spec) is None
    assert store.corrupt == 1
    assert store.scan()["corrupt"] == 1
    rerun = run_spec(spec, store=store)
    assert not rerun.from_cache
    assert rerun.to_dict() == orig_result.to_dict()
    assert store.scan()["corrupt"] == 0
    assert store.load(spec).to_dict() == orig_result.to_dict()


def test_cache_stats_and_clear(tmp_path):
    store = ResultStore(tmp_path / "cache")
    result = run_spec(_spec("orig"))
    store.store(_spec("orig"), result)
    stats = store.stats()
    assert stats["entries"] == 1
    assert stats["bytes"] > 0
    assert store.clear() == 1
    assert store.entries() == []


def test_telemetry_session_bypasses_cache(tmp_path):
    store = ResultStore(tmp_path / "cache")
    result = run_spec(_spec(), store=store, telemetry=TelemetrySession())
    assert not result.from_cache
    assert store.entries() == []
    assert (store.hits, store.misses, store.stored) == (0, 0, 0)


# -------------------------------------------------------------- the executor


def _plan() -> RunPlan:
    return RunPlan.of(_spec("orig"), _spec("base"), _spec("dyn"))


def test_execute_plan_parallel_matches_serial():
    serial = execute_plan(_plan(), jobs=1)
    parallel = execute_plan(_plan(), jobs=4)
    assert [r.to_dict() for r in parallel] == [r.to_dict() for r in serial]


def test_execute_plan_warm_store_replays_in_order(tmp_path):
    store = ResultStore(tmp_path / "cache")
    cold = execute_plan(_plan(), jobs=1, store=store)
    warm = execute_plan(_plan(), jobs=4, store=store)
    assert all(not r.from_cache for r in cold)
    assert all(r.from_cache for r in warm)
    assert [r.to_dict() for r in warm] == [r.to_dict() for r in cold]


class _BrokenPool:
    """A pool whose workers all 'crash': futures resolve to an exception."""

    def __init__(self, workers: int):
        self.workers = workers

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        return False

    def submit(self, fn, *args):
        future = Future()
        future.set_exception(RuntimeError("worker crashed"))
        return future


def test_crashed_workers_retry_serially():
    expected = [r.to_dict() for r in execute_plan(_plan(), jobs=1)]
    results = execute_plan(_plan(), jobs=4, pool_factory=_BrokenPool)
    assert [r.to_dict() for r in results] == expected


def test_pool_creation_failure_degrades_to_serial():
    def factory(workers):
        raise OSError("no processes for you")

    expected = [r.to_dict() for r in execute_plan(_plan(), jobs=1)]
    results = execute_plan(_plan(), jobs=4, pool_factory=factory)
    assert [r.to_dict() for r in results] == expected


def _mixed_plan() -> RunPlan:
    """Run specs around a two-tenant co-run: both job kinds in one plan."""
    from repro.tenancy import TenantPlan, TenantSpec

    corun = TenantPlan(
        tenants=(TenantSpec(_WORKLOAD, "dyn", passes=1), TenantSpec("vpr", "orig", passes=1)),
        quantum=2048,
    )
    return RunPlan.of(_spec("orig"), corun, _spec("dyn"))


def test_execute_plan_serves_runs_and_coruns_alike(tmp_path):
    from repro.engine.result import RunResult
    from repro.tenancy import TenancyResult

    serial = execute_plan(_mixed_plan())
    assert [type(r) for r in serial] == [RunResult, TenancyResult, RunResult]
    assert [serial[0].level, serial[2].level] == ["orig", "dyn"]
    docs = [r.to_dict() for r in serial]
    assert [r.to_dict() for r in execute_plan(_mixed_plan(), jobs=2)] == docs
    execute_plan(_mixed_plan(), store=ResultStore(tmp_path / "cache"))
    store = ResultStore(tmp_path / "cache")
    warm = execute_plan(_mixed_plan(), jobs=2, store=store)
    assert (store.hits, store.misses, store.stored) == (3, 0, 0)
    assert all(r.from_cache for r in warm)
    assert [r.to_dict() for r in warm] == docs


# ------------------------------------------------------------------- results


def test_overhead_vs_zero_cycle_baseline_raises():
    results = execute_plan(RunPlan.of(_spec("orig"), _spec("dyn")))
    baseline, treatment = results
    assert treatment.overhead_vs(baseline) == pytest.approx(
        100.0 * (treatment.cycles - baseline.cycles) / baseline.cycles
    )
    hollow = replace_cycles_with_zero(baseline)
    with pytest.raises(ConfigError, match="0 cycles"):
        treatment.overhead_vs(hollow)


def replace_cycles_with_zero(result):
    """A deserialized clone of ``result`` whose cycle count is zeroed."""
    doc = result.to_dict()
    doc["stats"]["cycles"] = 0
    from repro.engine.result import RunResult

    return RunResult.from_dict(doc)


# ----------------------------------------------------------- level diffing


def test_diff_levels_replays_both_sides_from_cache(tmp_path):
    from repro.tracing.explain import diff_levels, render_level_diff

    store = ResultStore(tmp_path / "cache")
    plan = RunPlan.of(_spec("orig"), _spec("dyn"))
    cold = diff_levels(*execute_plan(plan, store=store))
    warm = diff_levels(*execute_plan(plan, store=store))
    assert not cold.from_cache_a and not cold.from_cache_b
    assert warm.from_cache_a and warm.from_cache_b
    assert warm.cycles_a == cold.cycles_a
    assert warm.cycles_b == cold.cycles_b
    text = render_level_diff(warm)
    assert "cached" in text
    assert "prefetch fates" in text
