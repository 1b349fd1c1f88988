"""Trace compiler: lowered tuple code -> generated Python superblock kernels.

For one procedure version (checking or instrumented) the compiler emits a
single Python function of the shape::

    def _fp(ctx, state, limit):
        ... bind hierarchy/config/interpreter attributes to locals ...
        _r0 = regs[0]; _r1 = regs[1]; ...        # registers become locals
        while True:
            if icount + MAX_TRACE > limit:
                break                            # park: trampoline takes over
            if ip == 0:
                ... superblock trace from leader 0 ...
            elif ip == 17:
                ...
            else:
                break                            # unknown ip: single-step sync
        ... flush locals back into state ...
        return SIG_PARK

Each *trace* is the straight-line superblock starting at a leader: emission
walks forward through the tuple code, inlining ALU/compare/mov/const as
plain expressions, conditional branches as ``if reg: ip = T; continue``
(fallthrough stays inside the trace), memory references as an inline
demand path and prefetches as an inline issue path, each calling the real
``hierarchy.access``/``issue_prefetch`` for every case it does not handle.
A trace ends with ``ip = L; continue`` where it would fall into
a loop head (the target of a backward branch) or exceed ``TRACE_CAP``, so
each loop body is emitted once.  ``icount``/``cycles`` increments are
batched between observation points, which is where most of the speedup
comes from.

A CALL performs the reference loop's call in place (:func:`_call_path`):
the caller writes its counters to the state, pushes the reference's frame
and points the state at the callee.  If the callee has a kernel, that
kernel runs as a plain Python call while the caller keeps its registers in
its locals, until the callee returns ``SIG_RET``.  Any other signal from
the callee unwinds the caller too, which spills its registers into its
stacked frame.  A callee without a kernel, or a call that would nest past
:data:`CALL_DEPTH_CAP`, parks the caller the same way with the state at
the callee's first instruction.  Every other instruction that leaves the
procedure or mutates interpreter-global state (RET, HALT, a CHECK whose
counter reaches zero) flushes the locals and returns a signal; the
trampoline in :mod:`repro.fastpath.kernel` replays the exact reference
semantics for those events.

A kernel is built once per code shape.  :func:`_shape` makes one pass over
the lowered code and replaces every operand the kernel reads from its
constant table ``K`` (pcs, detect handlers, prefetch targets, callee names,
non-operator functions, large or non-``int`` literals) with the name of its
slot; :func:`_emit` reads nothing but ``(shape, num_regs, mode, hwkind)``,
and :data:`_MAKERS` keeps what it builds under that key.  So each procedure
copy the dynamic editor injects, and every procedure of a rebuilt workload,
costs one shape pass and one ``make(K)`` call once its shape is built.

Bit-identity ground rules (see DESIGN.md §5h):

* every counter update, cost charge, telemetry emission and callback happens
  in exactly the reference order — the generated source for each opcode is a
  transliteration of the matching ``Interpreter._dispatch`` arm;
* the inline paths are the only other copies of ``MemoryHierarchy.access``
  and ``issue_prefetch``, and serve the active tenant's lane.  A load or
  store stays inline for an L1 hit, a *useful* first use of an L1-resident
  prefetched block (its data has arrived), and an L1 miss on a block with
  no prefetch state whose L2 victim, if any, holds none either.  A
  prefetch stays inline when it is *redundant* (the block is in L1 or in
  flight) or fills a private L1 from L2.  Each inline case tests its whole
  guard before it mutates anything and makes exactly the lane, cache and
  ``PrefetchStats`` updates the method makes; every other case calls the
  real method with the state untouched (DESIGN.md §5h lists both sides);
* while the lane is observed (its telemetry bus, prefetch ledger or stream
  attribution is on), the inline cases also make the method's
  observation steps — the ledger hook, called through the instance, the
  per-stream bookkeeping and the sampling countdown step — in
  ``_sampled_miss``, ``_sampled_use`` and ``_prefetch_observed``, and
  call the method instead for the one occurrence the countdown samples,
  which emits the event; so the kernel emits no event itself, and slow
  calls see the countdowns exactly where the method left them;
* anything the compiler cannot prove equivalent is not compiled — the
  trampoline falls back to the reference dispatch loop instruction by
  instruction.
"""

from __future__ import annotations

import operator
import weakref
from typing import Optional

from repro.interp.lowering import (
    OP_ALLOC,
    OP_ALU,
    OP_ALUI,
    OP_BNZ,
    OP_BZ,
    OP_CALL,
    OP_CHECK,
    OP_CMP,
    OP_CONST,
    OP_HALT,
    OP_JMP,
    OP_LOAD,
    OP_MOV,
    OP_NOP,
    OP_PREFETCH,
    OP_RET,
    OP_STORE,
    _shl,
    _shr,
    lower_procedure,
)
from repro.errors import MemoryFault
from repro.machine.hierarchy import TENANT_SHIFT, StreamPrefetchStats

#: Signals a compiled kernel returns to the trampoline.
SIG_PARK = 0    #: state flushed, not done: limit, unknown leader, call to run
SIG_DONE = 1    #: HALT (final RET is SIG_RET with an empty stack)
SIG_RET = 2     #: OP_RET pending; ``ctx.ret_value`` holds the value
SIG_TRANS = 3   #: CHECK counter hit zero; burst transition pending

#: Upper bound on instructions emitted into one superblock trace.  Also the
#: slack the dispatcher keeps from the instruction limit: once fewer than
#: this many instructions remain in the slice budget the kernel parks and
#: the trampoline finishes the tail through the reference dispatch loop.
TRACE_CAP = 96

#: The most frames ``state.stack`` may hold, the new one included, for a
#: CALL to run its callee's kernel in place.  Each direct call nests one
#: Python frame; a deeper call parks for the trampoline to run the callee
#: instead, which keeps the nesting bounded on recursive programs.
CALL_DEPTH_CAP = 64

_ALU_SYM = {
    operator.add: "+",
    operator.sub: "-",
    operator.mul: "*",
    operator.floordiv: "//",
    operator.mod: "%",
    operator.and_: "&",
    operator.or_: "|",
    operator.xor: "^",
    _shl: "<<",
    _shr: ">>",
}

_CMP_SYM = {
    operator.lt: "<",
    operator.le: "<=",
    operator.eq: "==",
    operator.ne: "!=",
    operator.gt: ">",
    operator.ge: ">=",
}


#: The inline demand path, emitted once per load/store on ``addr``.  Three
#: cases stay inline on the active lane: an L1 hit; the useful first use of
#: an L1-resident prefetched block whose data has arrived; and an L1 miss on
#: a block with no prefetch state, unless the L2 victim, if the block misses
#: a full L2 set, is an unused prefetch.  Every other case calls ``access``
#: before anything has changed.  Observation rides on flags the plain path
#: already tests: while ``use_call`` (the lane's telemetry or ledger) is on
#: or a prefetch is attributed to a stream (``stream_of``), a useful first
#: use first goes through ``_sampled_use``, and while ``bus_on`` a clean
#: miss first goes through ``_sampled_miss``; each takes the observation
#: steps and answers False, or answers True, changing nothing, for the
#: sampled occurrence, which ``access`` then handles.
#:
#: ``_inflight`` and ``_prefetched_unused`` always hold the same blocks, and
#: every block in them is L2-resident (an L2 eviction wastes it), which the
#: oracle's hierarchy differential checks after every op.  So ``pf_unused``
#: alone says whether a block has prefetch state, and an L1 victim never
#: needs ``access``: evicting it from L1 wastes nothing.  An access probes
#: ``pf_unused`` for its block at most once, and not at all while the dict
#: is empty, as it is in every run that issues no prefetch.
#:
#: ``lblk`` memoizes the previous access's block: every inline path leaves
#: its block MRU in L1 and outside the prefetch dicts, and nothing between
#: two memory ops can disturb that (a slow call, an inline prefetch fill or
#: an observer the compiler does not inline resets the memo; a redundant
#: prefetch moves nothing), so a back-to-back re-access is exactly a hit
#: whose LRU promotion is a no-op.
#: Hit/miss/eviction counters batch into locals
#: (``hits1``/``miss1``/``hits2``/``miss2``/``ev1``/``ev2``; an inline
#: demand access is one L1 hit or miss, so they count those too) that the
#: function's finally block adds to the active lane's and the caches'
#: counters — pure monotonic counters nothing reads mid-kernel; prefetch
#: outcomes (``pfs``) count eagerly.  An L2 victim leaves its owner's L1
#: (inclusion), which need not be the active lane's.
_MEMORY_PATH = f"""\
block = (addr >> bshift) + boff
if block == lblk:
    hits1 += 1
else:
    way = l1_sets[block & l1_mask]
    if pf_unused and block in pf_unused:
        if block not in way or inflight[block] > cycles or (use_call or stream_of) and _sampled_use(lane, bus_on, stream_of, block, cycles, pf_unused[block]):
            stall = access(addr, cycles)
            cycles += stall
            mem_stall += stall
            lblk = -1
        else:
            del inflight[block]
            del pf_unused[block]
            pfs.useful += 1
            hits1 += 1
            if way[-1] != block:
                way.remove(block)
                way.append(block)
            lblk = block
    elif block in way:
        hits1 += 1
        if way[-1] != block:
            way.remove(block)
            way.append(block)
        lblk = block
    else:
        way2 = l2_sets[block & l2_mask]
        if pf_unused and len(way2) >= l2_assoc and way2[0] in pf_unused and block not in way2 or bus_on and _sampled_miss(lane):
            stall = access(addr, cycles)
            cycles += stall
            mem_stall += stall
            lblk = -1
        else:
            miss1 += 1
            if block in way2:
                hits2 += 1
                if way2[-1] != block:
                    way2.remove(block)
                    way2.append(block)
                cycles += l2_lat
                mem_stall += l2_lat
            else:
                miss2 += 1
                cycles += mem_lat
                mem_stall += mem_lat
                if len(way2) >= l2_assoc:
                    victim = way2.pop(0)
                    ev2 += 1
                    wv = lane_sets[victim >> {TENANT_SHIFT}][victim & l1_mask]
                    if victim in wv:
                        wv.remove(victim)
                way2.append(block)
            if len(way) >= l1_assoc:
                way.pop(0)
                ev1 += 1
            way.append(block)
            lblk = block
""".splitlines()

#: The inline issue path, emitted once per prefetch site on ``a`` with the
#: source tag expression ``{src}``.  Two outcomes stay inline: a redundant
#: prefetch (the block is in L1 or in flight), which counts and moves
#: nothing, so the ``lblk`` memo survives it; and a fill of a private L1
#: from L2, which is ``issue_prefetch`` plus ``_install_l1`` in the same
#: order.  Fills from memory (an L2 install that can waste another lane's
#: block and feeds the pollution matrix) and fills of a shared L1 call the
#: method.  While ``issue_call`` (the lane's telemetry, ledger or stream
#: map) is on, ``_prefetch_observed`` decides instead: it is the observing
#: copy of this template, defined once rather than emitted at every site.
_PREFETCH_PATH = """\
if issue_call:
    _prefetch_observed(ctx, a, cycles, {src})
    lblk = -1
else:
    pblk = (a >> bshift) + boff
    pway = l1_sets[pblk & l1_mask]
    if pblk in pway or pblk in inflight:
        pfs.issued += 1
        pfs.redundant += 1
        by_src[{src}] = by_src.get({src}, 0) + 1
    elif l1_shared or pblk not in l2_sets[pblk & l2_mask]:
        issue_prefetch(a, cycles, {src})
        lblk = -1
    else:
        pfs.issued += 1
        by_src[{src}] = by_src.get({src}, 0) + 1
        inflight[pblk] = cycles + l2_lat
        if len(pway) >= l1_assoc:
            pway.pop(0)
            l1.evictions += 1
            l1s.evictions += 1
        pway.append(pblk)
        pf_unused[pblk] = cycles
        lblk = -1
"""


def _prefetch_path(src: str) -> list[str]:
    """``_PREFETCH_PATH`` for one source tag expression."""
    return _PREFETCH_PATH.format(src=src).splitlines()


# ---- observation steps of the inline cases --------------------------------
# The templates call these only while the lane is observed.  Each makes the
# steps the hierarchy method makes besides the cache and PrefetchStats work
# (the ledger hook through the instance, the per-stream counters, the
# countdown step), after testing whether the countdown samples this
# occurrence; the sampled one is left untouched to the method, which emits.


def _stream_stats(lane, key) -> StreamPrefetchStats:
    """The lane's counters for stream ``key``, created on first use."""
    stats = lane.stream_stats.get(key)
    if stats is None:
        stats = lane.stream_stats[key] = StreamPrefetchStats()
    return stats


def _sampled_miss(lane) -> bool:
    """A clean L1 miss on an observed lane: True if the ``CacheMiss``
    countdown samples it, else the countdown step ``access`` takes."""
    n = lane.misses_since + 1
    if n >= lane.miss_sample_every:
        return True
    lane.misses_since = n
    return False


def _sampled_use(lane, bus_on: bool, stream_of: dict, block: int, now: int, issued_at: int) -> bool:
    """A useful first use on an observed lane: True if the ``PrefetchUsed``
    countdown samples it, else what ``_classify_use`` adds to the count."""
    if bus_on:
        n = lane.used_since + 1
        if n >= lane.prefetch_sample_every:
            return True
        lane.used_since = n
    if stream_of:
        key = stream_of.pop(block, None)
        if key is not None:
            _stream_stats(lane, key).useful += 1
    ledger = lane.ledger
    if ledger is not None:
        ledger.on_use(block, now, False, now - issued_at, 0)
    return False


def _prefetch_observed(ctx, addr: int, now: int, source: str) -> None:
    """``_PREFETCH_PATH`` on an observed lane: ``issue_prefetch`` for a fill
    from memory, a fill of a shared L1 and the occurrence the
    ``PrefetchIssued`` countdown samples; the two inline outcomes, with their
    observation steps, otherwise."""
    lane = ctx.lane
    raw = addr >> ctx.bshift
    block = raw + ctx.boff
    way = ctx.l1_sets[block & ctx.l1_mask]
    inflight = ctx.inflight
    redundant = block in way or block in inflight
    if not redundant and (ctx.l1_shared or block not in ctx.l2_sets[block & ctx.l2_mask]):
        ctx.issue_prefetch(addr, now, source)
        return
    if ctx.bus_on:
        n = lane.issued_since + 1
        if n >= lane.prefetch_sample_every:
            ctx.issue_prefetch(addr, now, source)
            return
        lane.issued_since = n
    prefetch = ctx.pfs
    prefetch.issued += 1
    by_source = prefetch.by_source
    by_source[source] = by_source.get(source, 0) + 1
    smap = lane.stream_map
    skey = smap.get(raw) if smap is not None else None
    if skey is not None:
        sstats = _stream_stats(lane, skey)
        sstats.issued += 1
    if redundant:
        prefetch.redundant += 1
        if skey is not None:
            sstats.redundant += 1
    ledger = lane.ledger
    if ledger is not None:
        ledger.on_issue(block, now, source, skey, redundant)
    if redundant:
        return
    inflight[block] = now + ctx.l2_lat
    if len(way) >= ctx.l1_assoc:
        way.pop(0)
        ctx.l1.evictions += 1
        ctx.l1s.evictions += 1
    way.append(block)
    ctx.pf_unused[block] = now
    if skey is not None:
        ctx.stream_of[block] = skey


#: The :class:`~repro.fastpath.kernel.FastCtx` fields every kernel binds to
#: locals of the same name for its loads and stores (``_MEMORY_PATH`` and the
#: memory words), its prefetches (``_PREFETCH_PATH``) and the counter flush.
_MEMORY_BINDINGS = (
    "hier", "access", "mem", "lane", "l1", "l1s", "l1_sets", "lane_sets",
    "l1_mask", "l1_assoc", "l1_shared", "l2", "l2s", "l2_sets", "l2_mask",
    "l2_assoc", "l2_lat", "mem_lat", "inflight", "pf_unused", "stream_of",
    "pfs", "bshift", "boff", "bus_on", "use_call",
)


class CompiledMode:
    """One compiled procedure version plus the metadata the trampoline needs."""

    __slots__ = ("fn", "leaders", "max_trace")

    def __init__(self, fn, leaders: frozenset, max_trace: int) -> None:
        self.fn = fn
        self.leaders = leaders
        self.max_trace = max_trace


class _Emitter:
    """Indentation-aware line buffer for the generated source."""

    def __init__(self, indent: int = 0) -> None:
        self.lines: list[str] = []
        self.indent = indent

    def w(self, line: str) -> None:
        self.lines.append("    " * self.indent + line)


#: The shape of a CHECK, HALT or NOP: the emitter reads only the opcode.
_BARE = {OP_CHECK: (OP_CHECK,), OP_HALT: (OP_HALT,), OP_NOP: (OP_NOP,)}

#: Opcodes whose operands are all registers or branch targets.
_INT_OPERANDS = frozenset((OP_BZ, OP_BNZ, OP_JMP, OP_MOV, OP_ALLOC))

#: Infix symbols of the operator functions; every other string in a shape
#: names a ``K`` slot.
_INFIX = frozenset(_ALU_SYM.values()) | frozenset(_CMP_SYM.values())


def _shape(code: list[tuple], num_regs: int) -> tuple[tuple, list]:
    """One pass over lowered code: its shape and its ``K`` table.

    The shape is the code with every operand the kernel reads from ``K``
    replaced by the name of its slot, ``"K<n>"``, numbered in code order:
    pcs, detect handlers, prefetch target tuples, callee names, ALU and
    compare functions that are not operators (an operator becomes its infix
    symbol), and every literal that is not an exact ``int``, or for a
    ``Const`` exceeds 0xFFFF.  So ``True`` and ``1.0``, equal to ``1`` as
    keys, never share its kernel, and injected heap addresses never split
    one.  What the emitter only tests is kept as the outcome of that test:
    whether a reference is traced, whether it has a detect handler, and how
    many addresses a prefetch names; a CHECK keeps only its opcode.
    Registers (a CALL's destination and arguments among them) and branch
    targets are printed, so they must be exact ints, and a register must
    lie in ``range(num_regs)``, because the kernel keeps only those in
    locals; anything else raises, which leaves the procedure to the
    reference loop.
    """
    consts: list = []

    def K(obj: object) -> str:
        consts.append(obj)
        return f"K{len(consts) - 1}"

    def regs(*operands: object) -> None:
        for r in operands:
            if type(r) is not int or not 0 <= r < num_regs:
                raise ValueError(f"fastpath: register operand in {t!r}")

    shape: list[tuple] = []
    append = shape.append
    for t in code:
        op = t[0]
        if op == OP_LOAD or op == OP_STORE:
            # (op, dst/src, base, offset, pc, traced, detect)
            _op, reg, base, off, pc, traced, det = t
            regs(reg, base)
            append((
                op, reg, base, off if type(off) is int else K(off), K(pc),
                bool(traced), None if det is None else K(det),
            ))
        elif op == OP_ALU or op == OP_ALUI or op == OP_CMP:
            # (op, func, dst, a, b) or (op, func, dst, a, imm)
            _op, func, dst, a, b = t
            regs(dst, a)
            if op != OP_ALUI:
                regs(b)
            elif type(b) is not int:
                b = K(b)
            sym = (_CMP_SYM if op == OP_CMP else _ALU_SYM).get(func)
            append((op, sym if sym is not None else K(func), dst, a, b))
        elif op in _INT_OPERANDS:
            for x in t:
                if type(x) is not int:
                    raise ValueError(f"fastpath: non-int operand in {t!r}")
            if op == OP_MOV or op == OP_ALLOC:
                regs(t[1], t[2])
            elif op != OP_JMP:
                regs(t[1])
            append(t)
        elif op == OP_CONST:
            _op, dst, value = t
            regs(dst)
            # Injected prefetch targets are heap addresses that change every
            # reinjection; through K they leave the shape alone.
            if type(value) is not int or not -0xFFFF <= value <= 0xFFFF:
                value = K(value)
            append((op, dst, value))
        elif op in _BARE:
            append(_BARE[op])
        elif op == OP_CALL:
            # (op, dst, name, args): the registers are printed, the name is
            # resolved at every call
            _op, dst, name, args = t
            args = tuple(args)
            regs(*args, *(() if dst is None else (dst,)))
            append((op, dst, K(name), args))
        elif op == OP_RET:
            if t[1] is not None:
                regs(t[1])
            append(t)
        elif op == OP_PREFETCH:
            append((op, K(t[1]), len(t[1])))
        else:
            raise ValueError(f"fastpath: unknown opcode {op}")
    return tuple(shape), consts


def _emit(shape: tuple, num_regs: int, mode: int, hwkind: str) -> tuple:
    """Build the kernel for one shape: ``(make, leaders, max_trace)``.

    ``make(K)`` closes the generated function over one ``K`` table.  These
    four arguments are all the emitter reads, so every procedure version of
    this shape runs the same source."""
    n = len(shape)
    counter_attr = "n_check" if mode == 0 else "n_instr"

    # ---- leaders: every ip the generated dispatcher must accept ----------
    leaders: set[int] = {0}
    refcount: dict[int, int] = {0: 1}

    def _lead(target: int) -> None:
        leaders.add(target)
        refcount[target] = refcount.get(target, 0) + 1

    # Loop heads (targets of backward branches): a trace that falls into one
    # ends there, so each loop body is emitted once, in the head's own trace.
    heads: set[int] = set()
    for i, s in enumerate(shape):
        op = s[0]
        if op in (OP_BZ, OP_BNZ, OP_JMP):
            target = s[1] if op == OP_JMP else s[2]
            _lead(target)
            if target <= i:
                heads.add(target)
        elif op in (OP_CALL, OP_CHECK):
            # where a call returns to, and re-entry after a trampoline crossing
            _lead(i + 1)
    # Targets outside the body (including == n) are left to the reference
    # loop, which raises the exact IndexError/ExecutionError the program earns.
    leaders = {L for L in leaders if 0 <= L < n}
    heads &= leaders

    uses: set[str] = set()

    def _emit_trace(L: int, em: _Emitter) -> tuple[int, list[int]]:
        """Emit the superblock starting at leader ``L`` at em's indent.

        Returns (instructions emitted, the ips its cap or loop-head exit
        continues at; a cap can mint a new leader)."""
        extra: list[int] = []
        pend_ic = 0  # batched icount increments not yet materialised
        pend_cy = 0  # batched cycles increments not yet materialised

        def flush_cy() -> None:
            nonlocal pend_cy
            if pend_cy:
                em.w(f"cycles += {pend_cy}")
                pend_cy = 0

        def flush_ic() -> None:
            nonlocal pend_ic
            if pend_ic:
                em.w(f"icount += {pend_ic}")
                pend_ic = 0

        def emit_exit(sig: int, park_ip: int, conditional: bool = False) -> None:
            # Inside a conditional branch the pending increments must be
            # materialised on the exit path *without* clearing them: the
            # fallthrough continues the trace and still owes them.
            nonlocal pend_ic, pend_cy
            if pend_ic:
                em.w(f"icount += {pend_ic}")
                if not conditional:
                    pend_ic = 0
            if pend_cy:
                em.w(f"cycles += {pend_cy}")
                if not conditional:
                    pend_cy = 0
            em.w(f"ip = {park_ip}")
            for line in _flush_stmts(num_regs, counter_attr):
                em.w(line)
            em.w(f"return {sig}")

        count = 0
        i = L
        while True:
            if i >= n:
                # fell off the end: the reference loop raises the IndexError
                flush_ic()
                flush_cy()
                em.w(f"ip = {n}")
                em.w("continue")
                break
            if count >= TRACE_CAP or (count and i in heads):
                flush_ic()
                flush_cy()
                em.w(f"ip = {i}")
                em.w("continue")
                extra.append(i)
                break
            s = shape[i]
            op = s[0]
            pend_ic += 1
            pend_cy += 1
            count += 1

            if op in (OP_LOAD, OP_STORE):
                # (op, dst/src, base, offset, pc, traced, detect)
                _op, reg, base, off, pc, traced, det = s
                word = "load" if op == OP_LOAD else "store"
                if type(off) is int and off < 0:
                    em.w(f"addr = _r{base} - {-off}")
                elif off:  # a positive literal or a K slot
                    em.w(f"addr = _r{base} + {off}")
                else:
                    em.w(f"addr = _r{base}")
                em.w("if addr & 3 or addr < 0:")
                em.indent += 1
                em.w(f'raise MemoryFault(f"bad {word} address {{addr:#x}} at {{{pc}}}")')
                em.indent -= 1
                flush_cy()
                for line in _MEMORY_PATH:
                    em.w(line)
                em.w("mem_refs += 1")
                if op == OP_LOAD:
                    em.w(f"_r{reg} = mget(addr, 0)")
                else:
                    em.w(f"mem[addr] = _r{reg}")
                if traced:
                    uses.add("trace")
                    em.w("cycles += trace_cost")
                    em.w("trace_chg += 1")
                    em.w("if tracing and sink is not None:")
                    em.indent += 1
                    em.w("traced += 1")
                    em.w("if rpush is not None:")
                    em.indent += 1
                    em.w(f"rpush(({pc}, addr))")
                    em.indent -= 1
                    em.w("else:")
                    em.indent += 1
                    em.w(f"sink({pc}, addr)")
                    em.indent -= 1
                    em.indent -= 1
                if det is not None:
                    uses.add("detect")
                    em.w(f"dstate, prefetches, cases = {det}.step(dstate, addr)")
                    em.w("detects += 1")
                    em.w("extra = detect_base + detect_per_case * cases")
                    em.w("cycles += extra")
                    em.w("detect_cyc += extra")
                    em.w("if prefetches:")
                    em.indent += 1
                    em.w("for a in prefetches:")
                    em.indent += 1
                    for line in _prefetch_path("pf_source"):
                        em.w(line)
                    em.w("cycles += pf_cost")
                    em.indent -= 1
                    em.w("pf_issued += len(prefetches)")
                    em.indent -= 1
                if hwkind == "stride":
                    # Transliterated StridePrefetcher.observe with the table,
                    # bounds and block size bound at kernel entry.  The table
                    # lives on the prefetcher object, so state carries across
                    # kernel exits exactly as with the method call.
                    uses.add("hwstride")
                    em.w(f"entry = st_get({pc})")
                    em.w("if entry is None:")
                    em.indent += 1
                    em.w("if len(st_table) >= st_size:")
                    em.indent += 1
                    em.w("st_pop(last=False)")
                    em.indent -= 1
                    em.w(f"st_table[{pc}] = [addr, 0, 0]")
                    em.indent -= 1
                    em.w("else:")
                    em.indent += 1
                    em.w("delta = addr - entry[0]")
                    em.w("stride = entry[1]")
                    em.w("if delta == stride and delta != 0:")
                    em.indent += 1
                    em.w("confidence = entry[2] + 1")
                    em.indent -= 1
                    em.w("else:")
                    em.indent += 1
                    em.w("stride = delta")
                    em.w("confidence = 0")
                    em.indent -= 1
                    em.w("entry[0] = addr")
                    em.w("entry[1] = stride")
                    em.w("entry[2] = confidence")
                    em.w("if confidence >= st_min and stride != 0:")
                    em.indent += 1
                    em.w(
                        "step = stride if abs(stride) >= st_block"
                        " else (st_block if stride > 0 else -st_block)"
                    )
                    em.w("for _k in range(1, st_degree + 1):")
                    em.indent += 1
                    em.w("a = addr + step * _k")
                    em.w("if a >= 0:")
                    em.indent += 1
                    for line in _prefetch_path('"stride"'):
                        em.w(line)
                    em.indent -= 1
                    em.indent -= 1
                    em.indent -= 1
                    em.indent -= 1
                elif hwkind == "markov":
                    # Transliterated MarkovPrefetcher.observe.  _last_block is
                    # read/written through the prefetcher attribute at each
                    # site so it survives kernel parks and trampoline
                    # crossings without a flush path of its own.
                    uses.add("hwmarkov")
                    em.w("block = addr >> mk_shift")
                    em.w("mk_last = hwpref._last_block")
                    em.w("if mk_last is not None and block != mk_last:")
                    em.indent += 1
                    em.w("successors = mk_get(mk_last)")
                    em.w("if successors is None:")
                    em.indent += 1
                    em.w("if len(mk_table) >= mk_size:")
                    em.indent += 1
                    em.w("mk_pop(last=False)")
                    em.indent -= 1
                    em.w("successors = {}")
                    em.w("mk_table[mk_last] = successors")
                    em.indent -= 1
                    em.w("successors[block] = successors.get(block, 0) + 1")
                    em.indent -= 1
                    em.w("if block != mk_last:")
                    em.indent += 1
                    em.w("predicted = mk_get(block)")
                    em.w("if predicted:")
                    em.indent += 1
                    em.w("for successor, _count in sorted(predicted.items(), key=_MK_RANK)[:mk_fanout]:")
                    em.indent += 1
                    em.w("a = successor << mk_shift")
                    for line in _prefetch_path('"markov"'):
                        em.w(line)
                    em.indent -= 1
                    em.indent -= 1
                    em.indent -= 1
                    em.w("hwpref._last_block = block")
                elif hwkind:
                    # Unknown prefetcher implementation: keep the method call.
                    uses.add("hwpref")
                    em.w(f"hwpref.observe({pc}, addr, cycles, hier)")
                    em.w("lblk = -1")

            elif op == OP_ALUI:
                # (op, symbol or K slot, dst, a, imm)
                _op, fn, dst, a, imm = s
                if fn in _INFIX:
                    em.w(f"_r{dst} = _r{a} {fn} ({imm})")
                else:
                    em.w(f"_r{dst} = {fn}(_r{a}, {imm})")
            elif op == OP_ALU:
                _op, fn, dst, a, b = s
                if fn in _INFIX:
                    em.w(f"_r{dst} = _r{a} {fn} _r{b}")
                else:
                    em.w(f"_r{dst} = {fn}(_r{a}, _r{b})")
            elif op == OP_CMP:
                _op, fn, dst, a, b = s
                if fn in _INFIX:
                    em.w(f"_r{dst} = 1 if _r{a} {fn} _r{b} else 0")
                else:
                    em.w(f"_r{dst} = 1 if {fn}(_r{a}, _r{b}) else 0")
            elif op in (OP_BZ, OP_BNZ):
                cmp = "==" if op == OP_BZ else "!="
                em.w(f"if _r{s[1]} {cmp} 0:")
                em.indent += 1
                if pend_ic:
                    em.w(f"icount += {pend_ic}")
                if pend_cy:
                    em.w(f"cycles += {pend_cy}")
                em.w(f"ip = {s[2]}")
                em.w("continue")
                em.indent -= 1
                # fallthrough continues the trace with the same pending costs
            elif op == OP_JMP:
                flush_ic()
                flush_cy()
                em.w(f"ip = {s[1]}")
                em.w("continue")
                break
            elif op == OP_MOV:
                em.w(f"_r{s[1]} = _r{s[2]}")
            elif op == OP_CONST:
                em.w(f"_r{s[1]} = {s[2]}")
            elif op == OP_CHECK:
                uses.add("check")
                flush_cy()
                em.w("cycles += check_cost")
                em.w("nchecks += 1")
                em.w("ncnt -= 1")
                em.w("if ncnt == 0:")
                em.indent += 1
                emit_exit(SIG_TRANS, i + 1, conditional=True)
                em.indent -= 1
            elif op == OP_CALL:
                # (op, dst, K slot of the callee's name, argument registers)
                uses.add("call")
                flush_ic()
                flush_cy()
                for line in _call_path(*s[1:], i + 1, mode, num_regs, counter_attr):
                    em.w(line)
                break
            elif op == OP_RET:
                if s[1] is not None:
                    em.w(f"ctx.ret_value = _r{s[1]}")
                else:
                    em.w("ctx.ret_value = 0")
                emit_exit(SIG_RET, i + 1)
                break
            elif op == OP_ALLOC:
                uses.add("alloc")
                em.w(f"_r{s[1]} = allocate(_r{s[2]})")
            elif op == OP_PREFETCH:
                # (op, K slot of the targets, how many there are)
                uses.add("prefetch")
                flush_cy()
                if s[2]:
                    em.w(f"for a in {s[1]}:")
                    em.indent += 1
                    for line in _prefetch_path("pf_source"):
                        em.w(line)
                    em.w("cycles += pf_cost")
                    em.indent -= 1
                    em.w(f"pf_issued += {s[2]}")
            elif op == OP_HALT:
                emit_exit(SIG_DONE, i + 1)
                break
            elif op == OP_NOP:
                pass
            else:
                raise ValueError(f"fastpath: unknown opcode {op}")
            i += 1
        return count, extra

    # ---- emit all traces (the cap can mint new leaders) ------------------
    bodies: dict[int, list[str]] = {}
    max_trace = 1
    worklist = sorted(leaders)
    while worklist:
        L = worklist.pop()
        if L in bodies:
            continue
        em = _Emitter(indent=0)
        count, extra = _emit_trace(L, em)
        bodies[L] = em.lines
        max_trace = max(max_trace, count)
        for j in extra:
            if j not in leaders:
                leaders.add(j)
                worklist.append(j)
            refcount[j] = refcount.get(j, 0) + 1

    # ---- assemble the module source --------------------------------------
    out = _Emitter()
    out.w("def _make(K):")
    out.indent += 1
    slots = sum(type(x) is str and x not in _INFIX for s in shape for x in s)
    for ix in range(slots):
        out.w(f"K{ix} = K[{ix}]")
    out.w("def _fp(ctx, state, limit):")
    out.indent += 1
    out.w("interp = ctx.interp")
    # The active lane's memory path (FastCtx binds it per run_fast call).
    for name in _MEMORY_BINDINGS:
        out.w(f"{name} = ctx.{name}")
    out.w("mget = mem.get")
    if uses & {"detect", "prefetch", "hwstride", "hwmarkov"}:
        out.w("issue_prefetch = ctx.issue_prefetch")
        # The optimizer installs stream maps only in listener callbacks,
        # which run between kernel entries, so one read per entry is exact.
        out.w("issue_call = use_call or lane.stream_map is not None")
        out.w("by_src = pfs.by_source")
    if uses & {"detect", "prefetch"}:
        out.w("pf_cost = ctx.pf_cost")
        out.w("pf_source = interp.prefetch_source")
    if "alloc" in uses:
        out.w("allocate = ctx.allocate")
    if "trace" in uses:
        out.w("trace_cost = ctx.trace_cost")
        out.w("tracing = interp.tracing_enabled")
        out.w("sink = interp.trace_sink")
        out.w('rbuf = getattr(sink, "ref_buffer", None)')
        out.w("rpush = None if rbuf is None else rbuf.append")
    if "check" in uses:
        out.w("check_cost = ctx.check_cost")
    if "detect" in uses:
        out.w("detect_base = ctx.detect_base")
        out.w("detect_per_case = ctx.detect_per_case")
    if "hwpref" in uses:
        out.w("hwpref = interp.hw_prefetcher")
    if "hwstride" in uses:
        out.w("hwpref = interp.hw_prefetcher")
        out.w("st_table = hwpref._table")
        out.w("st_get = st_table.get")
        out.w("st_pop = st_table.popitem")
        out.w("st_size = hwpref.table_size")
        out.w("st_min = hwpref.min_confidence")
        out.w("st_degree = hwpref.degree")
        out.w("st_block = ctx.hier.config.block_bytes")
    if "hwmarkov" in uses:
        out.w("hwpref = interp.hw_prefetcher")
        out.w("mk_table = hwpref._table")
        out.w("mk_get = mk_table.get")
        out.w("mk_pop = mk_table.popitem")
        out.w("mk_size = hwpref.table_size")
        out.w("mk_fanout = hwpref.fanout")
        out.w("mk_shift = ctx.hier.config.block_bytes.bit_length() - 1")
    if "call" in uses:
        # The frame a direct call pushes names this procedure version,
        # which is the state's for as long as this kernel runs.
        out.w("resolve = ctx.resolve")
        out.w(f"cmemo = ctx.memo[{mode}]")
        out.w("pattr = ctx.pattr")
        out.w("stack = state.stack")
        out.w("proc = state.proc")
        out.w("cpair = state.code_pair")
    out.w("regs = state.regs")
    for r in range(num_regs):
        out.w(f"_r{r} = regs[{r}]")
    out.w("ip = state.ip")
    for line in _load_counters(counter_attr):
        out.w(line)
    # Monotonic hierarchy counters batch into locals; the finally block
    # flushes them on every exit — returns, limit parks, and exceptions
    # (MemoryFault / ZeroDivisionError abort mid-trace, and the reference
    # applies these counters eagerly, so the flush must still happen).
    for name in ("hits1", "miss1", "hits2", "miss2", "ev1", "ev2"):
        out.w(f"{name} = 0")
    out.w("lblk = -1")
    out.w("try:")
    out.indent += 1
    out.w("while True:")
    out.indent += 1
    out.w(f"if icount + {max_trace} > limit:")
    out.indent += 1
    out.w("break")
    out.indent -= 1
    order = sorted(bodies, key=lambda L: (-refcount.get(L, 0), L))
    for pos, L in enumerate(order):
        out.w(f"{'if' if pos == 0 else 'elif'} ip == {L}:")
        out.indent += 1
        for line in bodies[L]:
            out.w(line)
        out.indent -= 1
    out.w("else:")
    out.indent += 1
    out.w("break")
    out.indent -= 1
    out.indent -= 1
    for line in _flush_stmts(num_regs, counter_attr):
        out.w(line)
    out.w(f"return {SIG_PARK}")
    out.indent -= 1
    out.w("finally:")
    out.indent += 1
    out.w("if hits1 or miss1:")
    out.indent += 1
    # Exactly the counters MemoryHierarchy.access updates for an inline hit
    # or miss: the active lane's and the caches' own.  Every L2 eviction,
    # and an L1 eviction when the L1 is shared, is a demand-caused eviction
    # of a shared level.
    out.w("lane.demand += hits1 + miss1")
    out.w("l1.hits += hits1")
    out.w("l1s.hits += hits1")
    out.w("if miss1:")
    out.indent += 1
    for stmt in (
        "l1.misses += miss1", "l1s.misses += miss1",
        "l1.evictions += ev1", "l1s.evictions += ev1",
        "l2.hits += hits2", "l2s.hits += hits2",
        "l2.misses += miss2", "l2s.misses += miss2",
        "l2.evictions += ev2", "l2s.evictions += ev2",
        "hier.demand_shared_evictions += ev2 + (ev1 if l1_shared else 0)",
    ):
        out.w(stmt)
    out.indent -= 4  # out of both ifs, `finally` and `_fp`
    out.w("return _fp")

    source = "\n".join(out.lines) + "\n"
    namespace: dict[str, object] = {
        "MemoryFault": MemoryFault,
        "lower_procedure": lower_procedure,
        "_MK_RANK": _MK_RANK,
        "_sampled_miss": _sampled_miss,
        "_sampled_use": _sampled_use,
        "_prefetch_observed": _prefetch_observed,
    }
    exec(compile(source, f"<fastpath:{counter_attr}>", "exec"), namespace)
    return namespace["_make"], frozenset(leaders), max_trace


#: ``(shape, num_regs, mode, hwkind)`` -> ``(make, leaders, max_trace)``:
#: each kernel is emitted and exec'd once per key (see :func:`_emit`), and
#: every procedure version of that shape, such as each copy the dynamic
#: editor injects, only closes ``make`` over its own ``K`` table.
_MAKERS: dict = {}


def _MK_RANK(kv):
    """Markov successor ranking key (count-descending, insertion-stable)."""
    return -kv[1]


#: The dispatch-loop counters a kernel keeps in locals of the same name.
#: With ``ncnt`` (the running version's CHECK counter) and ``dstate`` (the
#: DFSM state) they are what a kernel reads at entry and writes back before
#: it leaves the procedure.
_COUNTERS = (
    "cycles", "icount", "mem_refs", "mem_stall", "nchecks", "traced",
    "trace_chg", "detect_cyc", "detects", "pf_issued",
)


def _load_counters(counter_attr: str) -> list[str]:
    """Statements reading the counters from the state into locals."""
    return [f"{c} = state.{c}" for c in _COUNTERS] + [
        f"ncnt = state.{counter_attr}",
        "dstate = interp.dfsm_state",
    ]


def _store_counters(counter_attr: str) -> list[str]:
    """Statements writing the counter locals back into the state."""
    return [f"state.{c} = {c}" for c in _COUNTERS] + [
        f"state.{counter_attr} = ncnt",
        "interp.dfsm_state = dstate",
    ]


def _spill_regs(num_regs: int) -> list[str]:
    """Statements writing the register locals into this frame's ``regs``."""
    return [f"regs[{r}] = _r{r}" for r in range(num_regs)]


def _flush_stmts(num_regs: int, counter_attr: str) -> list[str]:
    """Statements writing every kernel local back into the parked state."""
    return [*_spill_regs(num_regs), "state.ip = ip", *_store_counters(counter_attr)]


def _call_path(
    dst, name: str, args: tuple, ret_ip: int, mode: int, num_regs: int, counter_attr: str
) -> list[str]:
    """A CALL of the procedure ``name`` resolves to, returning to ``ret_ip``.

    The reference loop's CALL, made in place: with the counters in the
    state, the caller charges attribution, pushes the reference's frame and
    points the state at the callee's ip 0.  If the callee has a kernel and
    the stack is at most :data:`CALL_DEPTH_CAP` frames deep, that kernel
    runs as a plain call while this kernel keeps its registers in locals;
    on ``SIG_RET`` the caller charges, pops and reloads what the callee
    changed, and re-enters its dispatcher at ``ret_ip``.  Otherwise, or on
    any other signal from the callee (which has flushed everything else),
    the caller spills its registers into its frame and returns the signal,
    ``SIG_PARK`` when the callee did not run: the trampoline then runs the
    callee, on its kernel or the reference loop.
    """
    return [
        *_store_counters(counter_attr),
        "if pattr is not None:",
        "    pattr.charge_state(state)",
        f"callee = resolve({name})",
        "cregs = [0] * callee.num_regs",
        *(f"cregs[{k}] = _r{a}" for k, a in enumerate(args)),
        f"stack.append((proc, cpair, {ret_ip}, regs, {dst}))",
        "state.proc = callee",
        "state.code_pair = lower_procedure(callee)",
        "state.regs = cregs",
        "state.ip = 0",
        "centry = cmemo.get(callee)",
        "if centry is None:",
        f"    centry = ctx.kernel(callee, {mode})",
        f"sig = {SIG_PARK}",
        f"if centry and len(stack) <= {CALL_DEPTH_CAP}:",
        "    sig = centry.fn(ctx, state, limit)",
        f"    if sig == {SIG_RET}:",
        "        if pattr is not None:",
        "            pattr.charge_state(state)",
        "        stack.pop()",
        "        state.proc = proc",
        "        state.code_pair = cpair",
        "        state.regs = regs",
        *(() if dst is None else (f"        _r{dst} = ctx.ret_value",)),
        *(f"        {line}" for line in _load_counters(counter_attr)),
        "        lblk = -1",
        f"        ip = {ret_ip}",
        "        continue",
        *_spill_regs(num_regs),
        "return sig",
    ]


#: proc -> {(mode, hwkind) -> CompiledMode | None}.  Keyed weakly so
#: compiled functions never become part of the procedure object (checkpoints
#: pickle procedures; generated functions are unpicklable and are instead
#: transparently recompiled after a restore).
_CACHE: "weakref.WeakKeyDictionary" = weakref.WeakKeyDictionary()

_MISSING = object()


def compiled_entry(proc, mode: int, hwkind: str) -> Optional[CompiledMode]:
    """Compiled kernel for one procedure version, or None if not compilable.

    ``hwkind`` selects the hardware-prefetcher specialization: "" (none),
    "stride"/"markov" (inlined observers), or "other" (method call).
    """
    per = _CACHE.get(proc)
    if per is None:
        per = {}
        _CACHE[proc] = per
    key = (mode, hwkind)
    entry = per.get(key, _MISSING)
    if entry is _MISSING:
        try:
            shape, consts = _shape(lower_procedure(proc)[mode], proc.num_regs)
            shape_key = (shape, proc.num_regs, mode, hwkind)
            built = _MAKERS.get(shape_key)
            if built is None:
                built = _MAKERS[shape_key] = _emit(*shape_key)
            make, leaders, max_trace = built
            entry = CompiledMode(make(consts), leaders, max_trace)
        except Exception:
            # Anything unrecognised falls back to the reference interpreter.
            entry = None
        per[key] = entry
    return entry


def clear_cache() -> None:
    """Drop all compiled code (tests use this to force recompilation)."""
    _CACHE.clear()
    _MAKERS.clear()
