"""Property tests: batched feeding is byte-identical to per-token feeding.

``extend_batch`` is the flat core's one-call-frame-per-batch entry point;
these tests pin that for *any* token sequence and *any* partition of it
into batches, the resulting grammar — rules, refcounts, digram index
insertion order, the full serialized state — equals the grammar built by
per-token ``append``, and equals the demoted linked reference engine.

Periodic traces (long motifs repeated with truncation and noise) drive the
in-place rule lengthening and its fallbacks; the small-alphabet strategy
rarely builds bodies longer than a few symbols.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import AnalysisError
from repro.oracle.fuzz import grammar_state_diff
from repro.oracle.refsequitur import RefSequitur
from repro.sequitur import MAX_TERMINAL, Sequitur

tokens_strategy = st.lists(st.integers(min_value=0, max_value=5), max_size=120)


@st.composite
def periodic_tokens(draw, max_tokens: int = 600) -> list[int]:
    """1-3 motifs of 2-40 symbols over 2-6 symbols, repeated with truncation
    and noise."""
    symbol = st.integers(min_value=0, max_value=draw(st.integers(min_value=1, max_value=5)))
    motifs = draw(st.lists(st.lists(symbol, min_size=2, max_size=40), min_size=1, max_size=3))
    steps = draw(
        st.lists(
            st.tuples(
                st.integers(min_value=0, max_value=len(motifs) - 1),
                st.integers(min_value=1, max_value=12),  # full repeats
                st.integers(min_value=0, max_value=39),  # then a truncated one
                st.none() | symbol,  # then noise
            ),
            min_size=1,
            max_size=20,
        )
    )
    tokens: list[int] = []
    for motif, repeats, cut, noise in steps:
        tokens.extend(motifs[motif] * repeats + motifs[motif][:cut])
        if noise is not None:
            tokens.append(noise)
    return tokens[:max_tokens]


#: Short small-alphabet traces, or periodic ones whose rule bodies grow tens
#: of symbols long through the in-place lengthening step and its fallbacks.
any_tokens = tokens_strategy | periodic_tokens()
cuts_strategy = st.lists(st.integers(min_value=0, max_value=600), max_size=8)


def reference_state(tokens: list[int]) -> dict:
    ref = RefSequitur()
    for token in tokens:
        ref.append(token)
    return ref.__getstate__()


def partition(tokens: list[int], cuts: list[int]) -> list[list[int]]:
    """Split ``tokens`` at the (possibly duplicated, unsorted) cut offsets,
    taken modulo ``len(tokens) + 1``."""
    bounds = sorted({c % (len(tokens) + 1) for c in cuts} | {0, len(tokens)})
    return [tokens[a:b] for a, b in zip(bounds, bounds[1:])]


@given(tokens=any_tokens, cuts=cuts_strategy)
@settings(max_examples=300, deadline=None)
def test_any_partition_matches_per_token_append(tokens, cuts):
    batched = Sequitur()
    for batch in partition(tokens, cuts):
        batched.extend_batch(batch)
    single = Sequitur()
    for token in tokens:
        single.append(token)
    assert grammar_state_diff(batched.__getstate__(), single.__getstate__()) == ""
    batched.verify_invariants()


@given(tokens=any_tokens)
@settings(max_examples=300, deadline=None)
def test_one_batch_matches_linked_reference(tokens):
    flat = Sequitur()
    flat.extend_batch(tokens)
    flat.verify_invariants()
    assert grammar_state_diff(flat.__getstate__(), reference_state(tokens)) == ""


@given(
    prefix=st.lists(st.integers(min_value=0, max_value=4), max_size=40),
    suffix=st.lists(st.integers(min_value=0, max_value=4), max_size=10),
    bad=st.integers(min_value=-(2**40), max_value=-1),
)
@settings(max_examples=100, deadline=None)
def test_negative_token_raises_at_exact_position(prefix, suffix, bad):
    seq = Sequitur()
    with pytest.raises(AnalysisError, match=f"got {bad}"):
        seq.extend_batch(prefix + [bad] + suffix)
    # Everything before the offending token is applied; nothing after is.
    want = Sequitur()
    want.extend_batch(prefix)
    assert seq.length == len(prefix)
    assert grammar_state_diff(seq.__getstate__(), want.__getstate__()) == ""
    seq.verify_invariants()


def test_overflow_token_raises_and_preserves_prefix():
    seq = Sequitur()
    with pytest.raises(AnalysisError, match="terminal"):
        seq.extend_batch([1, 2, 1, 2, MAX_TERMINAL, 7])
    want = Sequitur()
    want.extend_batch([1, 2, 1, 2])
    assert grammar_state_diff(seq.__getstate__(), want.__getstate__()) == ""


def test_max_terminal_minus_one_is_accepted():
    seq = Sequitur()
    big = MAX_TERMINAL - 1
    seq.extend_batch([big, 0, big, 0, big, 0])
    assert seq.expand() == [big, 0, big, 0, big, 0]
    seq.verify_invariants()


@given(tokens=tokens_strategy)
@settings(max_examples=100, deadline=None)
def test_serialize_roundtrip_preserves_batched_state(tokens):
    seq = Sequitur()
    seq.extend_batch(tokens)
    clone = Sequitur.__new__(Sequitur)
    clone.__setstate__(seq.__getstate__())
    assert grammar_state_diff(clone.__getstate__(), seq.__getstate__()) == ""
    clone.verify_invariants()
    assert clone.expand() == tokens

    # The restored grammar keeps growing identically to the original.
    more = [t + 1 for t in tokens[:17]]
    seq.extend_batch(more)
    clone.extend_batch(more)
    assert grammar_state_diff(clone.__getstate__(), seq.__getstate__()) == ""


@given(tokens=periodic_tokens(), at=st.integers(min_value=0, max_value=600))
@settings(max_examples=100, deadline=None)
def test_periodic_roundtrip_mid_chain_keeps_growing_identically(tokens, at):
    at %= len(tokens) + 1
    head, tail = tokens[:at], tokens[at:]
    seq = Sequitur()
    seq.extend_batch(head)
    clone = Sequitur.__new__(Sequitur)
    clone.__setstate__(seq.__getstate__())
    clone.verify_invariants()
    seq.extend_batch(tail)
    clone.extend_batch(tail)
    assert grammar_state_diff(clone.__getstate__(), seq.__getstate__()) == ""
    clone.verify_invariants()
    assert clone.expand() == tokens


@given(tokens=periodic_tokens(), cuts=cuts_strategy)
@settings(max_examples=100, deadline=None)
def test_in_place_lengthening_is_unobservable(tokens, cuts):
    """Same state and ``rules`` order as the general path, batch by batch."""
    fast = Sequitur()
    general = Sequitur()
    general._lengthen = lambda last, m, t: False  # every repeat goes to _match
    for batch in partition(tokens, cuts):
        fast.extend_batch(batch)
        general.extend_batch(batch)
        assert list(fast.rules) == list(general.rules)
    assert grammar_state_diff(fast.__getstate__(), general.__getstate__()) == ""


# One trace per shape where the lengthening step must fall back to _match:
# at the final token t, the start rule ends in a rule R used twice, and the
# reference sequence would run an overlapping-triple repair.
FALLBACK_SHAPES = {
    # site 1 is ``R t t t``: deleting its t re-points (t, t)
    "t t t": [2, 3, 0, 0, 0, 1, 2, 3, 0],
    # site 1 is ``x x R t x``: relinking x to R' re-points (x, x)
    "x x R t x": [0, 0, 0, 1, 2, 3, 0, 5, 1, 2, 3],
    # site 1 ends where site 2 begins: ``R t R`` + t
    "R t R t": [5, 1, 2, 0, 1, 2, 0],
    # site 1 is ``t t R t``: deleting its t may re-point (t, t)
    "t t R t": [0, 0, 1, 2, 0, 3, 1, 2, 0],
}


@pytest.mark.parametrize("tokens", FALLBACK_SHAPES.values(), ids=FALLBACK_SHAPES.keys())
def test_lengthening_fallback_shapes_match_linked_reference(tokens, monkeypatch):
    declined = []
    lengthen = Sequitur._lengthen

    def spy(self, last, m, t):
        twice = self.rules[-1 - self._key[last]].refcount == 2
        done = lengthen(self, last, m, t)
        if twice and not done:
            declined.append(t)
        return done

    monkeypatch.setattr(Sequitur, "_lengthen", spy)
    flat = Sequitur()
    flat.extend_batch(tokens)
    flat.verify_invariants()
    assert grammar_state_diff(flat.__getstate__(), reference_state(tokens)) == ""
    assert declined == [tokens[-1]]  # the guard, not the refcount, sent it to _match


def test_repeated_motif_mostly_skips_match(monkeypatch):
    calls = []
    match = Sequitur._match

    def counted(self, new, other):
        calls.append(new)
        match(self, new, other)

    monkeypatch.setattr(Sequitur, "_match", counted)
    motif = list(range(40))
    tokens = motif * 25
    seq = Sequitur()
    seq.extend_batch(tokens)
    assert seq.expand() == tokens
    # Lengthening a repeat in place never reaches _match: without it, 954 of
    # these 1,000 tokens did.
    assert len(calls) < len(tokens) // 10
