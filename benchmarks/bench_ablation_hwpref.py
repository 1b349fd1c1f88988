"""Section 4.3 / 5.1 ablation: hardware prefetcher baselines.

The paper argues that "many [hot data stream addresses] will not be
successfully prefetched using a simple stride-based prefetching scheme", and
positions its software scheme against correlation (Markov) prefetchers.

The hardware models here are *cost-free* (no instruction overhead), so any
benefit they show is an optimistic upper bound — and stride prefetching still
cannot cover shuffled pointer chains.
"""

from __future__ import annotations

from repro.bench.figures import HWPREF, ablation_hwpref

ABLATION_WORKLOADS = ("vpr", "mcf")


def test_hw_prefetcher_comparison(benchmark, cache):
    def sweep():
        return {name: ablation_hwpref(cache, name) for name in ABLATION_WORKLOADS}

    all_rows = benchmark.pedantic(sweep, rounds=1, iterations=1)
    for name, rows in all_rows.items():
        print("\n" + HWPREF.render(rows, name=name))
        by_scheme = {r["scheme"]: r for r in rows}
        # Stride prefetching barely covers shuffled pointer chains: its
        # useful-prefetch count is far below dyn's.
        assert by_scheme["stride"]["useful"] < by_scheme["dyn"]["useful"] / 2, (
            f"{name}: stride should cover far less than dyn"
        )
        # Dynamic hot-data-stream prefetching wins overall despite paying
        # software overheads the hardware models do not.
        assert by_scheme["dyn"]["overhead_pct"] < 0, f"{name}: dyn must win"
        # Markov (correlation) prefetching is the closest hardware relative
        # (Section 5.1) and does cover some of the pointer traffic.
        assert by_scheme["markov"]["useful"] > by_scheme["stride"]["useful"], (
            f"{name}: markov should cover more than stride"
        )
