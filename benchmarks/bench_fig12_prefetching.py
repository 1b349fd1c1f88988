"""Figure 12: performance impact of dynamic prefetching.

Reproduces the No-pref / Seq-pref / Dyn-pref bars for all six benchmarks and
checks the paper's headline claims:

* No-pref (all machinery, no prefetches) costs a handful of percent,
* Dyn-pref produces a net speedup on every benchmark, strongest for vpr and
  weakest for vortex (paper: 5% - 19%),
* Seq-pref *degrades* every benchmark except parser, whose hot data streams
  are sequentially allocated (paper: parser ~5% faster, others 7% - 12%
  slower).
"""

from __future__ import annotations

from repro.bench.figures import FIGURE12, figure12_rows


def test_figure12_prefetching_bars(benchmark, cache, bench_workloads):
    rows = benchmark.pedantic(
        figure12_rows, args=(cache, bench_workloads), rounds=1, iterations=1
    )
    print("\n" + FIGURE12.render(rows))
    by_name = {r["benchmark"]: r for r in rows}
    for name, row in by_name.items():
        # No-pref: pure overhead, single digits (paper: ~4-8%).
        assert 0 < row["nopref_pct"] < 12, f"{name}: no-pref overhead out of band"
        # Dyn-pref: net win everywhere (paper: 5-19% improvements).
        assert row["dynpref_pct"] < 0, f"{name}: dynamic prefetching must win"
        if name == "parser":
            # The one benchmark with sequentially-allocated hot streams:
            # Seq-pref wins too, and is "equivalent to our dynamic
            # prefetching scheme" (paper, Section 4.3).
            assert row["seqpref_pct"] < 0, "parser: seq-pref should win"
            assert abs(row["seqpref_pct"] - row["dynpref_pct"]) < 1.0, (
                "parser: seq and dyn should be near-equivalent"
            )
        else:
            # Everywhere else, sequential prefetching pollutes the cache
            # and dynamic prefetching must beat it.
            assert row["dynpref_pct"] < row["seqpref_pct"], f"{name}: dyn must beat seq"
            assert row["seqpref_pct"] > 0, f"{name}: seq-pref should degrade"

    if {"vpr", "vortex"} <= set(by_name):
        # Paper: vpr is the strongest winner, vortex the weakest.
        dyn = {n: by_name[n]["dynpref_pct"] for n in by_name}
        assert dyn["vpr"] == min(dyn.values()), "vpr should benefit most"
        assert dyn["vortex"] == max(dyn.values()), "vortex should benefit least"


def test_dyn_prefetches_are_accurate(cache, bench_workloads):
    """The hot-stream addresses are the right targets: high accuracy."""
    for name in bench_workloads:
        prefetch = cache.get(name, "dyn").hierarchy.prefetch
        assert prefetch.accuracy > 0.9, f"{name}: dyn accuracy {prefetch.accuracy:.2f}"


def test_seq_prefetches_waste_cache(cache, bench_workloads):
    """Sequential prefetches on shuffled heaps mostly miss their mark."""
    for name in bench_workloads:
        if name == "parser":
            continue
        seq = cache.get(name, "seq").hierarchy.prefetch
        dyn = cache.get(name, "dyn").hierarchy.prefetch
        assert seq.accuracy < dyn.accuracy, f"{name}: seq should be less accurate"
