"""Table 2: detailed dynamic prefetching characterization.

Per-benchmark, per-optimization-cycle averages: traced references, detected
hot data streams, DFSM size (states / injected checks), and procedures
modified.  The paper's shape to reproduce:

* stream counts span roughly 14 - 41 with vpr highest and vortex lowest,
* DFSM states land near ``headLen * n + 1`` and injected checks near ``2n``,
* a handful of procedures are patched per cycle (6 - 12), and
* traced references per cycle are in the tens of thousands (scaled here).
"""

from __future__ import annotations

from repro.bench.figures import TABLE2, table2_rows


def test_table2_characterization(benchmark, cache, bench_workloads):
    rows = benchmark.pedantic(
        table2_rows, args=(cache, bench_workloads), rounds=1, iterations=1
    )
    print("\n" + TABLE2.render(rows))
    by_name = {r["benchmark"]: r for r in rows}
    for name, row in by_name.items():
        assert row["opt_cycles"] >= 1, f"{name}: no optimization cycle completed"
        assert row["traced_refs_per_cycle"] > 1000, f"{name}: trace too thin"
        assert 5 <= row["hds_per_cycle"] <= 60, f"{name}: stream count out of band"
        # DFSM states ~ headLen*n + 1, checks ~ 2n (paper's consistent shape).
        n = row["hds_per_cycle"]
        assert row["dfsm_states"] <= 2.6 * n + 4, f"{name}: DFSM blow-up"
        assert row["dfsm_checks"] <= 2.6 * n + 4, f"{name}: too many checks"
        assert 2 <= row["procs_modified"] <= 14, f"{name}: procs modified out of band"

    if {"vpr", "vortex"} <= set(by_name):
        assert by_name["vpr"]["hds_per_cycle"] > by_name["vortex"]["hds_per_cycle"], (
            "vpr should detect the most streams, vortex the fewest (Table 2)"
        )


def test_stream_lengths_justify_prefetching(cache, bench_workloads):
    """Section 2: streams are long enough to prefetch ahead of use."""
    for name in bench_workloads:
        summary = cache.get(name, "dyn").summary
        assert summary is not None
        for cycle in summary.cycles:
            if cycle.stream_lengths:
                assert cycle.mean_stream_length >= 10, (
                    f"{name}: streams too short to be worth prefetching"
                )
