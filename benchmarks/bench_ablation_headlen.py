"""Section 4.3 ablation: the prefix-match length (headLen).

The paper: "The hot data stream prefix length that must match before
prefetching is initiated needs to be set carefully.  A prefix that is too
short may hurt prefetching accuracy, and too large a prefix reduces the
prefetching opportunity and incurs additional stream matching overhead."
They settled on 2; 1 lowered overhead but cost accuracy, 3 added overhead
with no accuracy gain.

The sweep runs on two contrasting benchmarks to keep the suite fast.
"""

from __future__ import annotations

from repro.bench.figures import HEADLEN, ablation_headlen

ABLATION_WORKLOADS = ("mcf", "twolf")


def test_headlen_sweep(benchmark, cache):
    def sweep():
        return {name: ablation_headlen(cache, name) for name in ABLATION_WORKLOADS}

    all_rows = benchmark.pedantic(sweep, rounds=1, iterations=1)
    for name, rows in all_rows.items():
        print("\n" + HEADLEN.render(rows, name=name))
        by_len = {r["head_len"]: r for r in rows}
        # headLen=2 is a net win (the paper's operating point).
        assert by_len[2]["dynpref_pct"] < 0, f"{name}: headLen=2 must win"
        # headLen=1 fires on a single reference: more (speculative)
        # prefetches issued, lower accuracy.
        assert by_len[1]["prefetch_accuracy"] <= by_len[2]["prefetch_accuracy"] + 0.02, (
            f"{name}: headLen=1 should not be more accurate than 2"
        )
        # headLen=3 gains no accuracy over 2 but prefetches less of the tail.
        assert by_len[3]["prefetch_accuracy"] <= by_len[2]["prefetch_accuracy"] + 0.02, (
            f"{name}: headLen=3 should not be more accurate than 2"
        )
        assert by_len[3]["dynpref_pct"] >= by_len[2]["dynpref_pct"] - 0.5, (
            f"{name}: headLen=3 should not beat headLen=2 meaningfully"
        )
