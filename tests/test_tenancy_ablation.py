"""The shared-L2 tenancy ablation reads every run from the result cache.

Its three co-runs and the three solo baselines they are normalized against
are jobs of one :class:`~repro.engine.spec.RunPlan`, so a warm result store
replays the whole table without simulating anything.
"""

from repro import workloads
from repro.bench.figures import ResultCache
from repro.engine import levels
from repro.engine.cache import ResultStore
from repro.interp.interpreter import Interpreter
from repro.tenancy import scheduler
from repro.tenancy.ablation import ABLATION, ablation_tenancy, tenancy_ablation_jobs

#: Every way into a simulation, for the warm pass to refuse.
SIMULATION_ENTRY_POINTS = [
    (levels, "execute_workload"),
    (levels, "prepare_workload"),
    (scheduler, "run_tenant_plan"),
    (scheduler, "build_named"),
    (workloads, "build_named"),
    (Interpreter, "start"),
    (Interpreter, "run"),
    (Interpreter, "run_slice"),
]


def _ablation(store: ResultStore) -> list[dict]:
    """The ablation at two passes per tenant, its jobs warmed as one plan."""
    cache = ResultCache(passes_scale=0.02, store=store)
    cache.warm(tenancy_ablation_jobs(cache))
    return ablation_tenancy(cache)


def test_warm_ablation_renders_without_simulating(tmp_path, monkeypatch):
    cold_store = ResultStore(tmp_path / "cache")
    cold = _ablation(cold_store)
    assert (cold_store.misses, cold_store.stored) == (6, 6)

    def refuse(*args, **kwargs):
        raise AssertionError("a warm ablation must not simulate")

    for owner, name in SIMULATION_ENTRY_POINTS:
        monkeypatch.setattr(owner, name, refuse)
    warm_store = ResultStore(tmp_path / "cache")
    warm = _ablation(warm_store)
    assert (warm_store.hits, warm_store.misses) == (6, 0)
    assert warm == cold
    assert ABLATION.render(warm) == ABLATION.render(cold)
    assert [row["variant"] for row in warm] == ["nopref", "dyn", "dyn+watchdog"]
