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
from dataclasses import astuple
from typing import Callable, Optional, Sequence

from repro.analysis.exact import enumerate_hot_substrings
from repro.analysis.hotstreams import AnalysisConfig, find_hot_streams
from repro.errors import AnalysisError, OracleError
from repro.interp.interpreter import Interpreter
from repro.ir.instructions import Const, Load, Pc, Prefetch, Ret
from repro.ir.program import Procedure, Program
from repro.machine.config import MachineConfig
from repro.machine.hierarchy import SHARING_MODES, TENANT_SHIFT, MemoryHierarchy
from repro.machine.memory import Memory
from repro.oracle.refgrammar import check_sequitur, ref_expand
from repro.oracle.refmodel import RefHierarchy
from repro.oracle.refsequitur import RefSequitur
from repro.oracle.refstreams import check_hot_streams, ref_hot_substrings
from repro.sequitur.sequitur import Sequitur
from repro.telemetry.events import EventBus
from repro.telemetry.sinks import ListSink
from repro.tracing.ledger import PrefetchLedger

#: One replayable operation: (op name, operand).
Op = tuple[str, int]

_HIER_OPS = ("access", "prefetch", "flush", "finalize")
_HIER_WEIGHTS = (68, 26, 3, 3)


# ---------------------------------------------------------------- generators


def gen_hierarchy_ops(rng, count: int, machine: MachineConfig) -> list[Op]:
    """Random hierarchy op sequence (byte addresses, unaligned on purpose).

    Each op draws its block one of three ways:

    * one op in four: one of ``associativity + 3`` blocks that share one L2
      set, so that set overflows between flushes and its evictions
      (inclusion, wasted prefetches) are exercised;
    * about one in seven: the block of one of the last four ops, so
      re-accesses, uses of prefetched blocks and redundant prefetches come
      close together;
    * the rest: a pool three times the L1's size.
    """
    l1_blocks = machine.l1.size_bytes // machine.block_bytes
    pool_blocks = max(3 * l1_blocks, 16)
    conflict_blocks = machine.l2.associativity + 3
    ops: list[Op] = []
    recent: list[int] = []
    for _ in range(count):
        (kind,) = rng.choices(_HIER_OPS, weights=_HIER_WEIGHTS)
        draw = rng.random()
        if draw < 0.25:
            block = rng.randrange(conflict_blocks) * machine.l2.num_sets
        elif draw < 0.4 and recent:
            block = rng.choice(recent[-4:])
        else:
            block = rng.randrange(pool_blocks)
        recent.append(block)
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
    translated back by the lane's offset.  After every op the in-flight and
    unused-prefetch dicts must hold the same blocks, all L2-resident: the
    identities the compiled kernel's inline paths rely on.
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
        _check_prefetch_state(prod, f"{where}: after op #{i}")
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


def _check_prefetch_state(prod: MemoryHierarchy, where: str) -> None:
    """The identities the compiled kernel's inline paths rely on: the
    in-flight and unused-prefetch dicts hold the same blocks, and each of
    them is L2-resident (an L2 eviction wastes it)."""
    inflight, unused = prod._inflight, prod._prefetched_unused
    if inflight.keys() != unused.keys():
        raise OracleError(
            f"{where}: in-flight blocks {sorted(inflight)} are not the unused "
            f"prefetches {sorted(unused)}"
        )
    for block in unused:
        if block not in prod._l2_sets[block & prod._l2_mask]:
            raise OracleError(f"{where}: unused prefetch {block:#x} is not L2-resident")


#: The cases :func:`kernel_case` tells apart that the compiled kernel
#: decides inline, those it leaves to ``access``/``issue_prefetch``, and the
#: occurrences of inline cases that the lane's sampling countdown picks for
#: an event, which the kernel also leaves to the method (the method emits).
KERNEL_INLINE = ("hit", "useful", "miss", "redundant", "l2 fill")
KERNEL_FALLBACK = ("late", "in-flight miss", "unused l2 victim", "memory fill", "shared l1 fill")
KERNEL_SAMPLED = ("sampled miss", "sampled use", "sampled issue")


def kernel_case(hier: MemoryHierarchy, kind: str, addr: int, now: int) -> str:
    """The case a demand access (``kind == "access"``) or prefetch of the
    active lane at cycle ``now`` falls in, read off ``hier`` before the op."""
    block = hier.block_of(addr)
    way = hier._l1_sets[block & hier._l1_mask]
    way2 = hier._l2_sets[block & hier._l2_mask]
    unused = hier._prefetched_unused
    lane = hier._lane
    bus_on = lane.bus.enabled
    if kind == "access":
        if block in unused:
            if block not in way:
                return "in-flight miss"
            if hier._inflight[block] > now:
                return "late"
            if bus_on and lane.used_since + 1 >= lane.prefetch_sample_every:
                return "sampled use"
            return "useful"
        if block in way:
            return "hit"
        if block not in way2 and len(way2) >= hier._l2_assoc and way2[0] in unused:
            return "unused l2 victim"
        if bus_on and lane.misses_since + 1 >= lane.miss_sample_every:
            return "sampled miss"
        return "miss"
    if block in way or block in hier._inflight:
        case = "redundant"
    elif block not in way2:
        return "memory fill"
    elif hier._l1_shared:
        return "shared l1 fill"
    else:
        case = "l2 fill"
    if bus_on and lane.issued_since + 1 >= lane.prefetch_sample_every:
        return "sampled issue"
    return case


#: The observed lane's ``CacheMiss`` and prefetch-event sampling periods in
#: :func:`diff_kernel`: small, so short sequences cross sample points of
#: every kind, and co-prime, so the countdowns do not fire together.
OBSERVED_SAMPLING = (3, 5)


def diff_kernel(machine: MachineConfig, ops: Sequence[Op], tenant: int = 0) -> None:
    """Run ``ops`` as one straight-line procedure on both kernels.

    Each access becomes ``CONST`` + ``LOAD`` of its word-aligned address and
    each prefetch a one-address ``PREFETCH``; flush and finalize ops have no
    instruction and are dropped.  Fresh interpreters run the procedure on
    the reference dispatch loop and on the compiled kernel, whose inline
    paths decide most of these ops without calling the hierarchy.  Their
    ``ExecStats``, every lane's counters, the caches' own counters and
    contents, the prefetch outcomes (``by_source`` and its order included),
    the in-flight state, the shared-eviction split and the pollution matrix
    must all match.  Each pair runs twice: on a plain lane, and on an
    observed one, whose telemetry bus samples at :data:`OBSERVED_SAMPLING`
    into a list, whose ledger records every prefetch and whose stream map
    attributes every other prefetch target; there the events, the ledger
    records, the per-stream counters, the in-flight attribution and the
    sampling countdowns must match too.  ``tenant`` selects the lane as for
    :func:`diff_hierarchy`: a non-zero one runs as that lane of a
    ``tenant + 1``-tenant hierarchy, in both sharing modes.
    """
    body: list = []
    for i, (kind, addr) in enumerate(ops):
        if kind == "access":
            body += [Const(0, addr & ~3), Load(1, 0, 0, Pc("fuzz", i))]
        elif kind == "prefetch":
            body.append(Prefetch((addr,)))
    body.append(Ret())
    program = Program([Procedure("fuzz", 0, 2, body, {})], "fuzz")
    shift = machine.block_bytes.bit_length() - 1
    targets = sorted({addr >> shift for kind, addr in ops if kind == "prefetch"})
    streams = {block: f"s{i % 3}" for i, block in enumerate(targets) if i % 2 == 0}
    for sharing in SHARING_MODES if tenant else ("private-l1",):
        for observe in (None, streams):
            reference, compiled = (
                _kernel_run(program, machine, tenant, sharing, fast, observe)
                for fast in (False, True)
            )
            lane = "observed" if observe is not None else "plain"
            for key, want in reference.items():
                if compiled.get(key) != want:
                    raise OracleError(
                        f"tenant {tenant} of {tenant + 1} ({sharing}, {lane} lane): compiled "
                        f"kernel and reference loop differ in {key}: compiled "
                        f"{compiled.get(key)}, reference {want}"
                    )


def _kernel_run(
    program: Program,
    machine: MachineConfig,
    tenant: int,
    sharing: str,
    fast: bool,
    streams: Optional[dict] = None,
) -> dict:
    """Run ``program`` on a fresh hierarchy; everything the run can leave
    behind in it, as plain data.  With ``streams`` (a block -> stream-key
    map) the lane is observed, as :func:`diff_kernel` describes."""
    hier = MemoryHierarchy(machine, tenant + 1, sharing)
    hier.activate(tenant)
    if streams is not None:
        sink = ListSink()
        bus = EventBus()
        bus.attach(sink)
        hier.telemetry = bus
        hier.ledger = PrefetchLedger()
        hier.miss_sample_every, hier.prefetch_sample_every = OBSERVED_SAMPLING
        hier.set_stream_attribution(streams)
    try:
        stats = Interpreter(program, Memory(), machine, hier).run(fast=fast)
    except Exception as exc:  # a crash is an outcome to compare, like a counter
        return {"outcome": repr(exc)}
    caches = [*hier._l1_caches, hier.l2]
    prefetch = hier.prefetch
    run = {
        "outcome": "finished",
        "ExecStats": stats.to_dict(),
        "lane views": [hier.view(t).to_dict() for t in range(hier.num_tenants)],
        "cache counters": [(c.hits, c.misses, c.evictions) for c in caches],
        "cache contents": [[list(way) for way in c._sets] for c in caches],
        "prefetch stats": (prefetch.to_dict(), list(prefetch.by_source)),
        "in-flight blocks": list(hier._inflight.items()),
        "unused prefetches": list(hier._prefetched_unused.items()),
        "shared-eviction split": (hier.demand_shared_evictions, hier.prefetch_shared_evictions),
        "pollution counts": sorted(hier.pollution_counts.items()),
    }
    if streams is not None:
        lane = hier._lane
        run.update({
            "sampling countdowns": (
                lane.misses_since, lane.used_since, lane.issued_since, lane.evicted_since
            ),
            "events": [event.to_record() for event in sink.events],
            "ledger records": [astuple(record) for record in hier.ledger.records],
            "stream stats": [(key, s.to_dict()) for key, s in lane.stream_stats.items()],
            "in-flight attribution": list(hier._stream_of.items()),
        })
    return run


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
