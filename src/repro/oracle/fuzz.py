"""Seeded fuzzing: random op/trace generators, differential drivers, shrinking.

The drivers replay one generated input against a production component and its
reference model in lockstep and raise :class:`~repro.errors.OracleError` on
the first observable difference.  When a driver fails, callers go through
:func:`check_with_shrinking`, which delta-debugs the input down to a
1-minimal op sequence (no single element can be removed and still fail) and
re-raises with the minimal reproducer embedded in the message — turning a
10⁴-op fuzz failure into something a human can replay by hand.

Everything is driven by an explicit ``random.Random`` instance; the same seed
always produces the same inputs, failures and minimal reproducers.
"""

from __future__ import annotations

import math
from typing import Callable, Sequence

from repro.analysis.exact import enumerate_hot_substrings
from repro.analysis.hotstreams import AnalysisConfig, find_hot_streams
from repro.errors import AnalysisError, OracleError
from repro.machine.config import MachineConfig
from repro.machine.hierarchy import SHARING_MODES, TENANT_SHIFT, MemoryHierarchy
from repro.oracle.refgrammar import check_sequitur, ref_expand
from repro.oracle.refmodel import RefHierarchy
from repro.oracle.refsequitur import RefSequitur
from repro.oracle.refstreams import check_hot_streams, ref_hot_substrings
from repro.sequitur.sequitur import Sequitur

#: One replayable operation: (op name, operand).
Op = tuple[str, int]

_HIER_OPS = ("access", "prefetch", "flush", "finalize")
_HIER_WEIGHTS = (68, 26, 3, 3)


# ---------------------------------------------------------------- generators


def gen_hierarchy_ops(rng, count: int, machine: MachineConfig) -> list[Op]:
    """Random hierarchy op sequence (byte addresses, unaligned on purpose)."""
    l1_blocks = machine.l1.size_bytes // machine.block_bytes
    pool_blocks = max(3 * l1_blocks, 16)
    ops: list[Op] = []
    for _ in range(count):
        (kind,) = rng.choices(_HIER_OPS, weights=_HIER_WEIGHTS)
        block = rng.randrange(pool_blocks)
        addr = block * machine.block_bytes + rng.randrange(machine.block_bytes)
        ops.append((kind, addr))
    return ops


def gen_trace(rng, length: int, alphabet: int = 8, motif_bias: float = 0.6) -> list[int]:
    """Random symbol trace with planted repetition.

    Pure noise gives Sequitur almost nothing to compress and the analysis
    nothing hot; interleaving a few repeated motifs with noise produces the
    rule nesting and partial overlaps where grammar bugs actually live.
    """
    motifs = [
        [rng.randrange(alphabet) for _ in range(rng.randint(2, 5))]
        for _ in range(rng.randint(1, 3))
    ]
    out: list[int] = []
    while len(out) < length:
        if rng.random() < motif_bias:
            out.extend(rng.choice(motifs))
        else:
            out.append(rng.randrange(alphabet))
    return out[:length]


def gen_periodic_trace(rng, length: int, alphabet: int = 16) -> list[int]:
    """Random trace of long motifs repeated back to back, with truncation and noise.

    A profiled loop over a pointer-chasing structure repeats the same
    reference sequence, tens of symbols long; each repeat lengthens one
    Sequitur rule a symbol at a time (the in-place lengthening step).
    Truncated repeats and noise end the chains at arbitrary points, and
    motif symbols recurring inside a motif send some steps to the general
    repair path.  ``gen_trace``'s 2-5 symbol motifs rarely build such bodies.
    """
    motifs = [
        [rng.randrange(alphabet) for _ in range(rng.randint(2, 40))]
        for _ in range(rng.randint(1, 3))
    ]
    out: list[int] = []
    while len(out) < length:
        if rng.random() < 0.05:
            out.append(rng.randrange(alphabet))
            continue
        motif = rng.choice(motifs)
        if rng.random() < 0.2:
            motif = motif[: rng.randint(1, len(motif))]
        out.extend(motif)
    return out[:length]


# ------------------------------------------------------- differential drivers


def diff_hierarchy(machine: MachineConfig, ops: Sequence[Op], tenant: int = 0) -> None:
    """Replay ``ops`` on MemoryHierarchy and RefHierarchy in lockstep.

    The clock advances one cycle per op plus each access's own stall, the
    same policy the interpreter uses; per-op stalls, final counters, prefetch
    classification and residency must all match.  ``tenant=0`` drives a
    one-tenant hierarchy (lane 0, offset 0).  A non-zero ``tenant`` replays
    the ops as that tenant of a ``tenant + 1``-tenant hierarchy, in both
    sharing modes, with every other tenant idle: the lane's ``view()``
    counters must match the reference, and resident blocks must match once
    translated back by the lane's offset.
    """
    if tenant == 0:
        hierarchies = [MemoryHierarchy(machine)]
    else:
        hierarchies = [MemoryHierarchy(machine, tenant + 1, mode) for mode in SHARING_MODES]
    for prod in hierarchies:
        prod.activate(tenant)
        _diff_lane(prod, tenant, RefHierarchy(machine), ops)


def _diff_lane(prod: MemoryHierarchy, tenant: int, ref: RefHierarchy, ops: Sequence[Op]) -> None:
    where = f"tenant {tenant} of {prod.num_tenants} ({prod.sharing})"
    now = 0
    for i, (kind, addr) in enumerate(ops):
        now += 1
        if kind == "access":
            got = prod.access(addr, now)
            want = ref.access(addr, now)
            if got != want:
                raise OracleError(
                    f"{where}: op #{i} access({addr:#x}) at cycle {now}: "
                    f"production stalled {got}, reference {want}"
                )
            now += got
        elif kind == "prefetch":
            prod.issue_prefetch(addr, now)
            ref.issue_prefetch(addr, now)
        elif kind == "flush":
            prod.flush(now)
            ref.flush(now)
        elif kind == "finalize":
            prod.finalize(now)
            ref.finalize(now)
        else:
            raise OracleError(f"unknown hierarchy op {kind!r}")
    prod.finalize(now)
    ref.finalize(now)
    # The lane's own counters, and (every other tenant being idle) the
    # aggregates and the live caches' counters, must all match the reference.
    for source, counters in (("lane", prod.view(tenant)), ("aggregate", prod)):
        pf = counters.prefetch
        got_pf = (pf.issued, pf.redundant, pf.useful, pf.late, pf.wasted)
        if got_pf != ref.prefetch.as_tuple():
            raise OracleError(
                f"{where}: {source} prefetch (issued, redundant, useful, late, wasted) "
                f"differ: production {got_pf}, reference {ref.prefetch.as_tuple()}"
            )
        for level, prod_c, ref_c in (("L1", counters.l1, ref.l1), ("L2", counters.l2, ref.l2)):
            for name in ("hits", "misses", "evictions"):
                got, want = getattr(prod_c, name), getattr(ref_c, name)
                if got != want:
                    raise OracleError(
                        f"{where}: {source} {level} {name}: production {got}, reference {want}"
                    )
        if counters.demand_accesses != ref.demand_accesses:
            raise OracleError(
                f"{where}: {source} demand accesses: production "
                f"{counters.demand_accesses}, reference {ref.demand_accesses}"
            )
    offset = tenant << TENANT_SHIFT
    for level, cache, ref_c in (("L1", prod.l1, ref.l1), ("L2", prod.l2, ref.l2)):
        if {block - offset for block in cache.resident_blocks()} != ref_c.resident_blocks():
            raise OracleError(f"{where}: {level} resident sets differ")


def grammar_state_diff(got: dict, want: dict) -> str:
    """First observable difference between two grammar wire states, or ''."""
    if got == want:
        return ""
    for field in ("length", "next_rule_id", "start_id"):
        if got[field] != want[field]:
            return f"{field}: flat {got[field]}, reference {want[field]}"
    got_rules, want_rules = got["rules"], want["rules"]
    if [r[0] for r in got_rules] != [r[0] for r in want_rules]:
        return (
            f"rules insertion order: flat {[r[0] for r in got_rules]}, "
            f"reference {[r[0] for r in want_rules]}"
        )
    for (rid, grc, gbody), (_, wrc, wbody) in zip(got_rules, want_rules):
        if grc != wrc:
            return f"R{rid} refcount: flat {grc}, reference {wrc}"
        if gbody != wbody:
            return f"R{rid} body: flat {gbody}, reference {wbody}"
    if got["digrams"] != want["digrams"]:
        return (
            f"digram index (key, position) order: flat {got['digrams']}, "
            f"reference {want['digrams']}"
        )
    return "states differ in an unexpected field"


def diff_sequitur(tokens: Sequence[int]) -> None:
    """Build a grammar over ``tokens`` and verify it four independent ways.

    The flat production engine consumes the tokens as one batch; its
    structural self-check, a per-token linked :class:`RefSequitur`, and the
    brute-force grammar checker must all agree.  Flat-core invariant
    violations are re-raised as :class:`OracleError` so ddmin shrinking
    produces a 1-minimal reproducer for them too.
    """
    tokens = list(tokens)
    seq = Sequitur()
    seq.extend_batch(tokens)
    try:
        seq.verify_invariants()  # the production self-check first
    except AnalysisError as err:
        raise OracleError(f"flat-core invariant violated: {err}") from err
    ref = RefSequitur()
    for token in tokens:
        ref.append(token)
    delta = grammar_state_diff(seq.__getstate__(), ref.__getstate__())
    if delta:
        raise OracleError(f"flat grammar diverges from linked reference: {delta}")
    check_sequitur(seq, tokens)  # then the independent brute force
    if seq.expand() != ref_expand(seq):
        raise OracleError("Sequitur.expand() disagrees with the reference expander")
    lengths = seq.expansion_lengths()
    for rule_id, rule in seq.rules.items():
        want = len(ref_expand(seq, rule))
        if lengths[rule_id] != want:
            raise OracleError(
                f"expansion_lengths[R{rule_id}] = {lengths[rule_id]}, "
                f"reference expansion has {want} terminals"
            )


def diff_streams(trace: Sequence[int], config: AnalysisConfig) -> None:
    """Cross-check the fast analysis and both brute-force enumerators."""
    trace = list(trace)
    seq = Sequitur()
    seq.extend(trace)
    streams = find_hot_streams(seq, config)
    check_hot_streams(trace, config, streams)
    threshold = config.resolved_threshold(len(trace))
    ours = ref_hot_substrings(trace, threshold, config.min_length, config.max_length)
    prod = enumerate_hot_substrings(trace, threshold, config.min_length, config.max_length)
    if ours != prod:
        only_ours = set(ours) - set(prod)
        only_prod = set(prod) - set(ours)
        heat_diff = {k: (ours[k], prod[k]) for k in set(ours) & set(prod) if ours[k] != prod[k]}
        raise OracleError(
            "brute-force enumerators disagree: "
            f"only reference {sorted(only_ours)}, only production {sorted(only_prod)}, "
            f"heat mismatches {heat_diff}"
        )


# ----------------------------------------------------------------- shrinking


def shrink_ops(ops: Sequence[Op], still_fails: Callable[[list[Op]], bool]) -> list[Op]:
    """Delta-debug ``ops`` to a 1-minimal failing subsequence (ddmin).

    ``still_fails`` must return True for the input sequence.  The result
    still fails but removing any single element makes it pass.
    """
    current = list(ops)
    if not still_fails(current):
        raise OracleError("shrink_ops: the unshrunk sequence does not fail")
    granularity = 2
    while len(current) >= 2:
        chunk = math.ceil(len(current) / granularity)
        shrunk = False
        start = 0
        while start < len(current):
            candidate = current[:start] + current[start + chunk :]
            if candidate and still_fails(candidate):
                current = candidate
                shrunk = True
            else:
                start += chunk
        if shrunk:
            granularity = max(granularity - 1, 2)
        elif chunk <= 1:
            break  # 1-minimal: no single op can be removed
        else:
            granularity = min(len(current), granularity * 2)
    return current


def check_with_shrinking(
    ops: Sequence[Op],
    check: Callable[[Sequence[Op]], None],
    label: str,
) -> None:
    """Run ``check(ops)``; on failure, shrink and re-raise with the repro.

    The re-raised :class:`OracleError` carries the *minimal* sequence's error
    message plus the sequence itself as a Python literal, and chains the
    original (unshrunk) failure for context.
    """
    try:
        check(ops)
        return
    except OracleError as original:
        def fails(candidate: list[Op]) -> bool:
            try:
                check(candidate)
            except OracleError:
                return True
            return False

        minimal = shrink_ops(list(ops), fails)
        try:
            check(minimal)
        except OracleError as err:
            raise OracleError(
                f"{label}: {err}\n"
                f"minimal reproducer ({len(minimal)} of {len(ops)} ops):\n"
                f"  ops = {minimal!r}"
            ) from original
        raise OracleError(  # pragma: no cover - shrinker contract violation
            f"{label}: shrunk sequence unexpectedly passes; original: {original}"
        ) from original
