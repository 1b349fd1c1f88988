"""Extension: prefetch watchdog under adversarial phase shifts.

The paper's scheme deoptimizes wholesale at the end of each hibernation
(Figure 1); nothing in it notices *mid-cycle* that an installed stream went
stale.  The phaseshift workload is built to exploit exactly that: each hot
stream's head stays phase-invariant while the tail it predicts rotates
through three disjoint working sets, so every installed DFSM keeps matching
— and keeps prefetching the wrong blocks — until the next profiling phase.

This bench compares, on that workload and the resilience-ablation machine
(small caches, costly prefetch issue):

* ``nopref``       — full pipeline, prefetches suppressed (the floor)
* ``dyn``          — the paper's scheme, unguarded
* ``dyn+watchdog`` — per-stream scoreboard + targeted rollback
  (:mod:`repro.resilience.watchdog`)

and asserts the watchdog's value: fewer cycles than unguarded dyn, within
5% of no-pref, with at least one ``StreamDeoptimized`` rollback.  Set
``REPRO_FAULT_SEED`` to add a fault-injected variant that must still
complete (graceful degradation).
"""

from __future__ import annotations

import os

from repro.bench.figures import WATCHDOG, ablation_watchdog


def test_watchdog_phase_shift_ablation(benchmark, cache):
    fault_seed = int(os.environ.get("REPRO_FAULT_SEED", "0")) or None
    rows = benchmark.pedantic(ablation_watchdog, args=(cache, fault_seed), rounds=1, iterations=1)
    print("\n" + WATCHDOG.render(rows))
    by = {r["variant"]: r for r in rows}
    nopref, dyn, wd = by["nopref"], by["dyn"], by["dyn+watchdog"]
    # The watchdog noticed and rolled back stale streams.
    assert wd["deopts"] >= 1
    assert wd["deopt_events"] >= 1
    if cache.passes_scale >= 1.0:
        # The headline relations need the full-length run: at reduced scale
        # the phases rotate too few times for the costs to separate cleanly.
        assert wd["cycles"] < dyn["cycles"]
        assert wd["cycles"] <= 1.05 * nopref["cycles"]
    if fault_seed is not None:
        faulted = by["dyn+watchdog+faults"]
        # Graceful degradation: faults fired, yet the run completed.
        assert faulted["faults"] >= 1
        assert faulted["cycles"] > 0
