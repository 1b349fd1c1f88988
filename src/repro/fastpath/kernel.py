"""Trampoline driving compiled procedure kernels with reference semantics.

The compiled kernels (:mod:`repro.fastpath.compiler`) execute straight-line
traces inside one procedure version, and a CALL whose callee has a kernel
runs that kernel in place.  Everything else — returns to a caller that left
through this trampoline, burst transitions, instruction limits, the callee
of a CALL that has no kernel or would nest past ``CALL_DEPTH_CAP`` (the
caller has made the call and parks at the callee's first instruction), and
any instruction pointer the compiled dispatcher does not recognise — crosses
back into this trampoline, which replays the exact code the reference
dispatch loop runs for the same event.  An instruction pointer that is not a
trace leader (a slice can park anywhere) is resynchronised by running the
*reference* ``_dispatch`` for one instruction (``limit = icount + 1``), and
the tail of a bounded slice — once fewer instructions remain than the
longest trace — runs in one reference call up to the limit.  Both are
bit-identical by construction: the slice-composition invariant guarantees
that any split of a run into slices, on either kernel, equals the run in
one piece.

The kernels serve whichever lane of the hierarchy is active when
:func:`run_fast` is called (a tenancy scheduler activates each tenant
before its slice); a hierarchy whose ``access`` or ``issue_prefetch`` is not
:class:`~repro.machine.hierarchy.MemoryHierarchy`'s own runs on the
reference loop instead.
"""

from __future__ import annotations

import inspect
from types import MethodType

from repro.core.hwpref import MarkovPrefetcher, StridePrefetcher
from repro.errors import ExecutionError
from repro.machine.hierarchy import MemoryHierarchy
from repro.telemetry.events import BurstBegin, BurstEnd

from repro.fastpath.compiler import (
    SIG_PARK,
    SIG_RET,
    SIG_TRANS,
    compiled_entry,
)

_CHECKING, _INSTRUMENTED = 0, 1

#: The hierarchy's own demand/prefetch functions, as they were when this
#: module was imported.  The kernel's slow path calls these directly, so
#: instrumentation wrapped around the class methods later sees no more calls
#: than it would if the inline paths had handled every access and prefetch.
_ACCESS = MemoryHierarchy.access
_ISSUE_PREFETCH = MemoryHierarchy.issue_prefetch


def mirror_eligible(hier) -> bool:
    """Whether the compiled kernel is exact for ``hier``.

    The kernel's inline path copies ``MemoryHierarchy.access`` and its slow
    path calls the import-time functions above, so ``access`` and
    ``issue_prefetch`` must be those of ``hier``'s class — not patched on
    the instance — and the class's must be ``MemoryHierarchy``'s own,
    possibly under a class-level wrapper that sets ``__wrapped__``.
    """
    for name, own in (("access", _ACCESS), ("issue_prefetch", _ISSUE_PREFETCH)):
        method = getattr(type(hier), name)
        if getattr(getattr(hier, name), "__func__", None) is not method:
            return False  # patched on the instance
        if inspect.unwrap(method) is not own:
            return False  # overridden by a subclass
    return True


class FastCtx:
    """Bindings the compiled kernels read, built once per :func:`run_fast` call.

    Every kernel entry copies the fields it uses into locals.  The
    memory-path fields describe the lane active at :func:`run_fast` entry;
    nothing switches lanes, attaches telemetry or a ledger inside one call.
    The lane's stream map is the exception: the optimizer installs it in
    listener callbacks between kernel entries, so kernels read it from the
    lane at each entry.  What only an observed lane needs — its ledger,
    stream map and per-stream counters, and the sampling countdowns — is
    read from the lane inside the observing branches, never at entry, and
    the countdowns are written back there, so a slow call sees them where
    the method would have left them.  Nothing here is part of the
    architectural state: a checkpoint restore builds a fresh context (and
    recompiles procedures) transparently.

    ``memo`` holds one dict per version (checking, instrumented) from
    procedure to kernel, shared by the trampoline and every compiled CALL
    site; :meth:`kernel` fills it.
    """

    __slots__ = (
        "interp", "hier", "access", "issue_prefetch", "mem", "allocate",
        "check_cost", "trace_cost", "detect_base", "detect_per_case", "pf_cost",
        "lane", "l1", "l1s", "l1_sets", "lane_sets", "l1_mask", "l1_assoc",
        "l1_shared", "l2", "l2s", "l2_sets", "l2_mask", "l2_assoc", "l2_lat",
        "mem_lat", "inflight", "pf_unused", "stream_of", "pfs", "bshift",
        "boff", "bus_on", "use_call", "hwkind", "memo", "resolve", "pattr",
        "ret_value",
    )

    def __init__(self, interp) -> None:
        hier = interp.hierarchy
        cfg = interp.config
        self.interp = interp
        self.hier = hier
        self.mem = interp.memory._words
        self.allocate = interp.memory.allocate
        self.check_cost = cfg.check_cost
        self.trace_cost = cfg.trace_cost
        self.detect_base = cfg.detect_base
        self.detect_per_case = cfg.detect_per_case
        self.pf_cost = cfg.prefetch_issue_cost
        # The inline demand and issue paths work on the active lane's set
        # lists and counters; every other case goes through the methods.
        self.access = MethodType(_ACCESS, hier)
        self.issue_prefetch = MethodType(_ISSUE_PREFETCH, hier)
        lane = hier._lane
        self.lane = lane
        self.l1 = lane.l1
        self.l1s = lane.l1_stats
        self.l1_sets = hier._l1_sets
        # An L2 inclusion victim leaves its owner's L1 (the tenant bits).
        self.lane_sets = [other.l1._sets for other in hier._lanes]
        self.l1_mask = hier._l1_mask
        self.l1_assoc = hier._l1_assoc
        self.l1_shared = hier._l1_shared
        self.l2 = hier.l2
        self.l2s = lane.l2_stats
        self.l2_sets = hier._l2_sets
        self.l2_mask = hier._l2_mask
        self.l2_assoc = hier._l2_assoc
        self.l2_lat = hier.config.l2_latency
        self.mem_lat = hier.config.memory_latency
        self.inflight = hier._inflight
        self.pf_unused = hier._prefetched_unused
        self.stream_of = hier._stream_of
        self.pfs = lane.prefetch
        self.bshift = hier._block_shift
        self.boff = hier._offset
        # With the lane's telemetry on, an inline case steps a sampling
        # countdown, and its sampled occurrence goes to the method.
        self.bus_on = lane.bus.enabled
        # A prefetch outcome also reaches the lane's sampled events and
        # ledger hooks, so with either on it takes the observation steps.
        self.use_call = self.bus_on or lane.ledger is not None
        self.hwkind = prefetcher_kind(interp.hw_prefetcher)
        # Keyed by the procedure object (which hashes by identity), so the
        # memo keeps every procedure it has seen alive until run_fast
        # returns, copies the dynamic editor has patched out included.  An
        # id() key would not: a new copy could reuse a freed copy's address
        # and run the freed copy's compiled code.
        self.memo = ({}, {})
        # A patch changes only what later calls resolve to, so every call
        # resolves its callee's name, and the memo needs no invalidation.
        self.resolve = interp.program.resolve
        # Per-procedure attribution: a kernel flushes its counters into the
        # state before each procedure boundary, so charging the state there
        # is exact — the reference loop's charge points (CALL before the
        # switch, RET before the pop, park/finish).
        self.pattr = interp.proc_attr
        self.ret_value = 0

    def kernel(self, proc, mode: int):
        """``proc``'s kernel in version ``mode``, or False if it has none.

        Compiled once per run through this module's ``compiled_entry``, so
        anything wrapped around that name sees every compile."""
        entry = compiled_entry(proc, mode, self.hwkind) or False
        self.memo[mode][proc] = entry
        return entry


def prefetcher_kind(hwpref) -> str:
    """The ``hwkind`` the kernels of an interpreter with ``hwpref`` specialize
    on.  Exact-type match: a subclass may override ``observe()``, so only the
    two known implementations get their observers compiled inline."""
    if hwpref is None:
        return ""
    if type(hwpref) is StridePrefetcher:
        return "stride"
    if type(hwpref) is MarkovPrefetcher:
        return "markov"
    return "other"


def _final_stats(state):
    """Assemble ExecStats from a finished parked state (reference layout)."""
    from repro.interp.interpreter import ExecStats

    stats = ExecStats()
    stats.cycles = state.cycles
    stats.instructions = state.icount
    stats.memory_refs = state.mem_refs
    stats.mem_stall_cycles = state.mem_stall
    stats.checks_executed = state.nchecks
    stats.bursts = state.bursts
    stats.traced_refs = state.traced
    stats.trace_charges = state.trace_chg
    stats.detect_cycles = state.detect_cyc
    stats.detects_executed = state.detects
    stats.prefetches_issued = state.pf_issued
    stats.charged_cycles = state.charged
    stats.return_value = state.return_value
    return stats


def _burst_transition(interp, state) -> None:
    """Replay the reference CHECK-transition block on the parked state.

    The compiled kernel has already charged ``check_cost``, counted the
    check, driven the counter to zero and flushed everything (including
    ``interp.dfsm_state``); this performs the mode switch, telemetry and
    listener callback in exactly the reference order.  The listener may
    mutate reload values, tracing flags and ``dfsm_state`` — the next
    kernel entry (or reference single-step) re-reads them, just as the
    reference loop does after a callback.
    """
    telem = interp.telemetry
    listener = interp.check_listener
    if state.mode == _CHECKING:
        state.mode = _INSTRUMENTED
        state.n_instr = interp.n_instr0
        if telem.enabled:
            telem.emit(BurstBegin(state.cycles))
        if listener is not None:
            extra = listener.burst_begin(state.cycles)
            state.cycles += extra
            state.charged += extra
            state.n_instr = interp.n_instr0
    else:
        state.mode = _CHECKING
        state.n_check = interp.n_check0
        state.bursts += 1
        if telem.enabled:
            telem.emit(BurstEnd(state.cycles, state.bursts))
        if listener is not None:
            extra = listener.burst_end(state.cycles)
            state.cycles += extra
            state.charged += extra
            # New reload values take effect for the period starting now.
            state.n_check = interp.n_check0


def run_fast(interp, state, limit: int, raise_on_limit: bool):
    """Drive ``state`` to completion or to ``limit`` instructions.

    Mirrors ``Interpreter._dispatch``'s contract: returns the final
    :class:`~repro.interp.interpreter.ExecStats` when the program finishes,
    None when the instruction limit parks it (``raise_on_limit=False``), and
    raises :class:`~repro.errors.ExecutionError` on the limit otherwise.
    """
    if not mirror_eligible(interp.hierarchy):
        return interp._dispatch(state, limit, raise_on_limit)
    ctx = FastCtx(interp)
    pattr = ctx.pattr
    # Per-run memo over the weak-keyed compile cache, whose lookup is
    # measurable at the rate procedures are entered.
    memo = ctx.memo

    while True:
        if state.icount >= limit:
            if raise_on_limit:
                raise ExecutionError(
                    f"instruction limit {limit} exceeded in {state.proc.name}"
                )
            if pattr is not None:
                pattr.charge_state(state)
            return None
        entry = memo[state.mode].get(state.proc)
        if entry is None:
            entry = ctx.kernel(state.proc, state.mode)
        if not entry or state.ip not in entry.leaders:
            # Reference single-step: resynchronise onto a trace leader.
            stats = interp._dispatch(state, state.icount + 1, False)
            if stats is not None:
                return stats
            continue
        if state.icount + entry.max_trace > limit:
            # The slice's tail: fewer instructions remain than the kernel
            # keeps in hand, so the reference loop runs them to the limit.
            stats = interp._dispatch(state, limit, False)
            if stats is not None:
                return stats
            continue
        sig = entry.fn(ctx, state, limit)
        if sig == SIG_PARK:
            continue
        if sig == SIG_RET:
            if pattr is not None:
                pattr.charge_state(state)
            value = ctx.ret_value
            stack = state.stack
            if not stack:
                state.return_value = value
                state.finished = True
                return _final_stats(state)
            proc, code_pair, ip, regs, dst = stack.pop()
            state.proc = proc
            state.code_pair = code_pair
            state.ip = ip
            state.regs = regs
            if dst is not None:
                regs[dst] = value
        elif sig == SIG_TRANS:
            _burst_transition(interp, state)
        else:  # SIG_DONE (HALT)
            if pattr is not None:
                pattr.charge_state(state)
            state.finished = True
            return _final_stats(state)
