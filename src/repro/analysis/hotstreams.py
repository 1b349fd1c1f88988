"""Fast hot-data-stream detection from a Sequitur grammar (Figure 5).

The algorithm exploits that each non-terminal ``A`` of a Sequitur grammar
expands to exactly one word ``w_A``:

1. number non-terminals in reverse post-order so parents precede children,
2. propagate ``uses`` (occurrences in the unique parse tree) top-down, and
3. in the same order compute ``heat = |w_A| * coldUses`` where ``coldUses``
   discounts occurrences inside *other* hot non-terminals, reporting ``A``
   as hot when its length is in bounds and its heat reaches the threshold.

Running time is linear in the grammar size.  This is the paper's fast,
slightly conservative alternative to Larus's exact whole-program-paths
algorithm; :mod:`repro.analysis.exact` provides ground truth for tests.
The optimizer runs it once per profiling period, on that period's
grammar, so it keeps no state from one call to the next.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Optional

from repro.analysis.stream import HotDataStream
from repro.errors import AnalysisError
from repro.sequitur.sequitur import Sequitur
from repro.wire import Wire


@dataclass(frozen=True)
class AnalysisConfig(Wire):
    """Parameters of hot-data-stream detection.

    The heat threshold ``H`` is ``heat_threshold`` when given, otherwise
    ``ceil(heat_ratio * trace_length)`` — the paper's "account for at least
    1% of the collected trace" corresponds to ``heat_ratio = 0.01``.

    ``min_length``/``max_length`` bound the stream's reference count (the
    worked example of Table 1 uses 2..7); ``min_unique`` additionally demands
    distinct references (the paper's production setting: "more than ten
    unique references" = ``min_unique=10``).  ``max_streams`` keeps only the
    hottest streams, bounding DFSM construction.
    """

    heat_ratio: float = 0.01
    heat_threshold: Optional[int] = None
    min_length: int = 2
    max_length: int = 100
    min_unique: int = 0
    max_streams: Optional[int] = None

    def resolved_threshold(self, trace_length: int) -> int:
        """The absolute heat threshold H for a trace of ``trace_length``."""
        if self.heat_threshold is not None:
            return self.heat_threshold
        return max(1, math.ceil(self.heat_ratio * trace_length))


#: The paper's production analysis settings (Section 4.1).
PAPER_ANALYSIS = AnalysisConfig(heat_ratio=0.01, min_length=2, max_length=100, min_unique=10)


@dataclass
class RuleFacts:
    """Per-non-terminal values computed by the analysis (Table 1 columns)."""

    rule_id: int
    length: int
    index: int = -1
    uses: int = 0
    cold_uses: int = 0
    heat: int = 0
    hot: bool = False
    children: list[int] = field(default_factory=list)


def analyze_grammar(seq: Sequitur, config: AnalysisConfig) -> dict[int, RuleFacts]:
    """Run the Figure 5 algorithm; return the per-rule computed values.

    The returned facts expose every intermediate of the worked example
    (length, reverse-post-order index, uses, coldUses, heat, hotness); use
    :func:`find_hot_streams` when only the streams are needed.  Uses only
    the grammar's public API, so it works on any engine exposing it (the
    flat core and the oracle's linked reference alike).
    """
    lengths = seq.expansion_lengths()
    start_id = seq.start.id
    facts: dict[int, RuleFacts] = {
        rule_id: RuleFacts(
            rule_id=rule_id,
            length=lengths[rule_id],
            children=[child.id for child in seq.children(rule)],
        )
        for rule_id, rule in seq.rules.items()
    }

    # Reverse post-order numbering (iterative DFS; parents get lower indices).
    next_index = len(facts)
    visited: set[int] = set()
    stack: list[tuple[int, bool]] = [(start_id, False)]
    while stack:
        rule_id, expanded = stack.pop()
        if expanded:
            next_index -= 1
            facts[rule_id].index = next_index
            continue
        if rule_id in visited:
            continue
        visited.add(rule_id)
        stack.append((rule_id, True))
        for child_id in facts[rule_id].children:
            if child_id not in visited:
                stack.append((child_id, False))
    if next_index != 0:
        raise AnalysisError("grammar contains rules unreachable from the start rule")

    order = sorted(facts.values(), key=lambda f: f.index)

    # Uses: occurrences of each non-terminal in the unique parse tree.
    facts[start_id].uses = facts[start_id].cold_uses = 1
    for fact in order:
        for child_id in fact.children:
            child = facts[child_id]
            child.uses += fact.uses
            child.cold_uses = child.uses

    # Hot detection with cold-use discounting, in ascending index order.
    threshold = config.resolved_threshold(seq.length)
    for fact in order:
        fact.heat = fact.length * fact.cold_uses
        is_start = fact.rule_id == start_id
        fact.hot = (
            not is_start
            and config.min_length <= fact.length <= config.max_length
            and threshold <= fact.heat
        )
        subtract = fact.uses if fact.hot else (fact.uses - fact.cold_uses)
        if subtract:
            for child_id in fact.children:
                facts[child_id].cold_uses -= subtract
    return facts


def find_hot_streams(seq: Sequitur, config: AnalysisConfig) -> list[HotDataStream]:
    """Extract hot data streams, hottest first.

    Applies the ``min_unique`` and ``max_streams`` filters on top of
    :func:`analyze_grammar`, expands each hot non-terminal to its reference
    sequence, and deduplicates identical sequences (keeping the hottest).
    """
    facts = analyze_grammar(seq, config)
    streams: dict[tuple[int, ...], HotDataStream] = {}
    for fact in sorted(facts.values(), key=lambda f: f.index):
        if not fact.hot:
            continue
        symbols = tuple(seq.expand(seq.rules[fact.rule_id], limit=config.max_length))
        if len(set(symbols)) <= config.min_unique:
            continue
        existing = streams.get(symbols)
        if existing is None or existing.heat < fact.heat:
            streams[symbols] = HotDataStream(symbols=symbols, heat=fact.heat, rule_id=fact.rule_id)
    ranked = sorted(streams.values(), key=lambda s: (-s.heat, s.rule_id))
    if config.max_streams is not None:
        ranked = ranked[: config.max_streams]
    return ranked


class HotStreamAnalyzer:
    """The Figure 5 analysis of one profiling period's grammar.

    The optimizer analyzes each period's grammar once, when the awake phase
    ends, and profiles the next period into a fresh grammar, so there is
    no state to carry between analyses: the analyzer holds only the
    grammar, and :meth:`find_hot_streams` is :func:`find_hot_streams` on
    it.  :meth:`TemporalProfiler.hot_streams
    <repro.profiling.profiler.TemporalProfiler.hot_streams>` calls through
    this class, which gives the analysis one named entry point.
    """

    __slots__ = ("seq",)

    def __init__(self, seq: Sequitur) -> None:
        self.seq = seq

    def find_hot_streams(self, config: AnalysisConfig) -> list[HotDataStream]:
        """Hot data streams of the grammar, hottest first."""
        return find_hot_streams(self.seq, config)
