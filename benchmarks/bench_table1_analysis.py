"""Table 1 / Figure 6: the hot-data-stream analysis worked example.

Asserts every cell of the paper's Table 1 and benchmarks the Figure 5
algorithm on a realistic profiling-phase grammar.
"""

from __future__ import annotations

import random

from repro.analysis import AnalysisConfig, find_hot_streams
from repro.bench.figures import TABLE1, table1_rows
from repro.sequitur import Sequitur


def test_table1_values_match_paper(benchmark):
    rows = benchmark(table1_rows)
    by_word = {r["word"]: r for r in rows}
    # Table 1, row by row (S, B, C, A).
    s = by_word["abaabcabcabcabc"]
    assert (s["length"], s["index"], s["uses"], s["coldUses"], s["heat"], s["hot"]) == (
        15, 0, 1, 1, 15, False)
    b = by_word["abcabc"]
    assert (b["length"], b["index"], b["uses"], b["coldUses"], b["heat"], b["hot"]) == (
        6, 1, 2, 2, 12, True)
    c = by_word["abc"]
    assert (c["length"], c["index"], c["uses"], c["coldUses"], c["heat"], c["hot"]) == (
        3, 2, 4, 0, 0, False)
    a = by_word["ab"]
    assert (a["length"], a["index"], a["uses"], a["coldUses"], a["heat"], a["hot"]) == (
        2, 3, 5, 1, 2, False)
    print("\n" + TABLE1.render(rows))


def test_analysis_speed_on_profiling_scale_grammar(benchmark):
    """Figure 5's algorithm is linear in grammar size; measure at 32k refs."""
    rng = random.Random(3)
    chains = [[rng.randrange(2000) for _ in range(40)] for _ in range(30)]
    seq = Sequitur()
    count = 0
    while count < 32_000:
        chain = rng.choice(chains)
        seq.extend(chain)
        count += len(chain)
    config = AnalysisConfig(heat_ratio=0.002, min_length=10, max_length=200, min_unique=5)

    streams = benchmark(find_hot_streams, seq, config)
    assert streams, "profiling-scale grammar must yield hot streams"
    assert all(st.length >= 10 for st in streams)
