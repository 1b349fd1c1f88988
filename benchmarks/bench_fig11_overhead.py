"""Figure 11: overhead of online profiling and analysis.

Reproduces the Base / Prof / Hds bars for all six benchmarks and checks the
paper's qualitative claims:

* the Base (dynamic-check) overhead is low single digits,
* data-reference profiling at the sampled rate adds very little on top, and
* online hot-data-stream analysis adds very little on top of that —
  the total stays in the single digits ("around 3% for mcf to 7% for parser
  and vortex" in the paper; the shape, not the exact decimals, is the target).
"""

from __future__ import annotations

from repro.bench.figures import FIGURE11, figure11_rows


def test_figure11_overhead_bars(benchmark, cache, bench_workloads):
    rows = benchmark.pedantic(
        figure11_rows, args=(cache, bench_workloads), rounds=1, iterations=1
    )
    print("\n" + FIGURE11.render(rows))
    for row in rows:
        name = row["benchmark"]
        # Base overhead: small and positive (paper: 2.5% - 6%).
        assert 0.5 < row["base_pct"] < 8.0, f"{name}: base overhead out of band"
        # Profiling adds little (paper: <= 1.6% additional).
        assert row["prof_pct"] - row["base_pct"] < 3.0, f"{name}: profiling too costly"
        # Analysis adds little (paper: <= 1.4% additional).
        assert row["hds_pct"] - row["prof_pct"] < 2.5, f"{name}: analysis too costly"
        # Total stays in the single digits (paper: 3% - 7%).
        assert row["hds_pct"] < 9.0, f"{name}: total profiling overhead out of band"


def test_profiling_overhead_is_mostly_checks(cache, bench_workloads):
    """Paper: "at the current sampling rate most of the overhead arises from
    the dynamic checks"."""
    rows = figure11_rows(cache, bench_workloads)
    for row in rows:
        check_part = row["base_pct"]
        added = row["hds_pct"] - row["base_pct"]
        assert check_part > added, f"{row['benchmark']}: checks should dominate"
