"""The simulated machine: executes lowered programs and accounts cycles.

Cost model (see :class:`~repro.machine.config.MachineConfig`):

* every instruction costs one cycle,
* loads/stores add the memory-hierarchy stall for their address,
* ``CHECK`` adds ``check_cost`` and drives the bursty-tracing counter machine
  of Figure 2/3 (``nCheck``/``nInstr``, checking vs. instrumented version),
* traced references add ``trace_cost`` and are pushed to the ``trace_sink``,
* injected detection handlers add ``detect_base + detect_per_case * cases``
  and may issue prefetches (``prefetch_issue_cost`` each), and
* online analysis charges cycles through the check listener's return value.

The interpreter is deliberately a single big dispatch loop over dense tuples;
this is the hot path of every experiment in the repository.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Optional, Protocol

from repro.errors import ExecutionError, MemoryFault
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
    lower_procedure,
)
from repro.ir.instructions import Pc
from repro.ir.program import Program
from repro.machine.config import MachineConfig, PAPER_MACHINE
from repro.machine.hierarchy import MemoryHierarchy
from repro.machine.memory import Memory
from repro.telemetry.events import BurstBegin, BurstEnd
from repro.telemetry.sinks import NULL_SINK
from repro.tracing.spans import NULL_TRACER
from repro.wire import Wire

#: Version indices for the dual-version bodies (Figure 2).
CHECKING, INSTRUMENTED = 0, 1


class CheckListener(Protocol):
    """Receives burst transitions from the CHECK counter machine.

    Both callbacks return extra cycles to charge to simulated time (used to
    bill online analysis/optimization work, the paper's Hds overhead).  A
    listener may also mutate the interpreter's counter reload values,
    ``tracing_enabled`` flag and ``dfsm_state`` — the interpreter re-reads
    them after every callback.
    """

    def burst_begin(self, now: int) -> int: ...

    def burst_end(self, now: int) -> int: ...


class HardwarePrefetcher(Protocol):
    """Optional hardware-prefetcher model observing the demand stream."""

    def observe(self, pc: Pc, addr: int, now: int, hierarchy: MemoryHierarchy) -> None: ...


@dataclass
class ExecStats(Wire):
    """Counters accumulated over one :meth:`Interpreter.run`."""

    cycles: int = 0
    instructions: int = 0
    memory_refs: int = 0
    mem_stall_cycles: int = 0
    checks_executed: int = 0
    bursts: int = 0
    traced_refs: int = 0
    #: executions of instrumented loads/stores that paid ``trace_cost``
    #: (unlike ``traced_refs``, counted whether or not a sink consumed the
    #: record — the exact multiplier for cycle attribution)
    trace_charges: int = 0
    detect_cycles: int = 0
    detects_executed: int = 0
    prefetches_issued: int = 0
    charged_cycles: int = 0
    return_value: int = 0

    @property
    def cpi(self) -> float:
        """Cycles per instruction."""
        return self.cycles / self.instructions if self.instructions else 0.0


class ExecState:
    """The dispatch loop's registers, parked between execution slices.

    :meth:`Interpreter.run` drives the loop to completion in one call and
    never exposes this object; :meth:`Interpreter.start` /
    :meth:`Interpreter.run_slice` park the loop here at instruction-count
    boundaries so a scheduler (``repro.tenancy``) can interleave several
    programs on one shared hierarchy.  ``cycles`` doubles as the clock the
    loop resumes from — a scheduler may advance it between slices to model
    time spent running other tenants.
    """

    __slots__ = (
        "proc", "code_pair", "mode", "ip", "regs", "stack",
        "cycles", "icount", "mem_refs", "mem_stall", "nchecks", "bursts",
        "traced", "trace_chg", "detect_cyc", "detects", "pf_issued", "charged",
        "n_check", "n_instr", "finished", "return_value",
    )

    def __init__(self, proc, code_pair, regs, n_check: int, n_instr: int) -> None:
        self.proc = proc
        self.code_pair = code_pair
        self.mode = CHECKING
        self.ip = 0
        self.regs = regs
        self.stack: list[tuple] = []
        self.cycles = 0
        self.icount = 0
        self.mem_refs = 0
        self.mem_stall = 0
        self.nchecks = 0
        self.bursts = 0
        self.traced = 0
        self.trace_chg = 0
        self.detect_cyc = 0
        self.detects = 0
        self.pf_issued = 0
        self.charged = 0
        self.n_check = n_check
        self.n_instr = n_instr
        self.finished = False
        self.return_value = 0


class Interpreter:
    """Executes a program against a memory image and a cache hierarchy."""

    def __init__(
        self,
        program: Program,
        memory: Memory,
        config: MachineConfig = PAPER_MACHINE,
        hierarchy: Optional[MemoryHierarchy] = None,
    ) -> None:
        self.program = program
        self.memory = memory
        self.config = config
        self.hierarchy = hierarchy if hierarchy is not None else MemoryHierarchy(config)
        # Bursty-tracing counter machine (Figure 2/3).  Reload values are
        # mutated by the profiling controller; `huge` defaults mean "never
        # enter the instrumented version".
        self.n_check0 = 1 << 60
        self.n_instr0 = 1
        self.tracing_enabled = False
        self.trace_sink: Optional[Callable[[Pc, int], None]] = None
        self.check_listener: Optional[CheckListener] = None
        self.hw_prefetcher: Optional[HardwarePrefetcher] = None
        #: Current DFSM prefix-matcher state (the injected `state` variable).
        self.dfsm_state: int = 0
        #: Telemetry bus (``.enabled``/``.emit``); NULL_SINK = off.  Events
        #: never charge simulated cycles — only burst transitions emit, so
        #: the hot dispatch loop is untouched.
        self.telemetry = NULL_SINK
        #: Span tracer (:mod:`repro.tracing.spans`); read by the optimizer,
        #: never touched in the dispatch loop.  NULL_TRACER = off.
        self.tracer = NULL_TRACER
        #: Source tag stamped on software prefetches this interpreter issues
        #: (detection handlers and PREFETCH instructions).  "sw" for the
        #: dynamic pipeline; :class:`~repro.core.static_pref.StaticPrefetcher`
        #: rebrands it "static".
        self.prefetch_source = "sw"
        #: Parked dispatch-loop state for slice execution (:meth:`start` /
        #: :meth:`run_slice`); None until :meth:`start`, and untouched by
        #: :meth:`run`.
        self.exec_state: Optional[ExecState] = None
        #: Per-procedure attribution recorder
        #: (:class:`~repro.tracing.attribution.ProcAttrRecorder`); None = off.
        #: Charged at procedure boundaries (CALL/RET) and park points only,
        #: so the straight-line hot path is untouched; descriptive-only, so
        #: the observer-effect-zero invariant covers it.
        self.proc_attr = None

    def set_counters(self, n_check0: int, n_instr0: int) -> None:
        """Set the counter reload values (profiling rate, Section 2.1)."""
        if n_check0 < 1 or n_instr0 < 1:
            raise ExecutionError("counter reload values must be >= 1")
        self.n_check0 = n_check0
        self.n_instr0 = n_instr0

    def run(
        self,
        args: tuple[int, ...] = (),
        max_instructions: Optional[int] = None,
        fast: bool = True,
    ) -> ExecStats:
        """Execute from the entry procedure until HALT / final RET.

        Args:
            args: integer arguments for the entry procedure.
            max_instructions: optional safety bound; exceeding it raises
                :class:`ExecutionError`.
            fast: True (default) runs the compiled fastpath kernel, False
                the reference dispatch loop.  Results are bit-identical
                either way.
        """
        try:
            state = self._start(args)
            limit = max_instructions if max_instructions is not None else (1 << 62)
            if fast:
                from repro.fastpath.kernel import run_fast

                stats = run_fast(self, state, limit, raise_on_limit=True)
            else:
                stats = self._dispatch(state, limit, raise_on_limit=True)
            assert stats is not None  # raise_on_limit=True never suspends
            return stats
        except ZeroDivisionError as exc:
            raise ExecutionError("division by zero in simulated program") from exc

    def start(self, args: tuple[int, ...] = ()) -> None:
        """Prepare slice execution from the entry procedure (see :meth:`run_slice`)."""
        self.exec_state = self._start(args)

    def run_slice(self, budget: int, fast: bool = True) -> Optional[ExecStats]:
        """Execute up to ``budget`` more instructions; None while suspended.

        Returns the final :class:`ExecStats` once the program reaches HALT or
        its final RET (with ``cycles`` read off the state's clock, which a
        scheduler may have advanced between slices).  Slicing is invisible to
        the simulated program: running N slices of any budget produces the
        same instruction stream, stats and hierarchy state as one
        :meth:`run`, provided the clock was left alone.  ``fast`` selects the
        compiled kernel per slice exactly like :meth:`run`; slices may mix
        fast and reference execution freely (the parked state is shared).
        """
        state = self.exec_state
        if state is None:
            raise ExecutionError("run_slice() before start()")
        if state.finished:
            raise ExecutionError("run_slice() after the program finished")
        if budget < 1:
            raise ExecutionError("slice budget must be >= 1")
        try:
            if fast:
                from repro.fastpath.kernel import run_fast

                return run_fast(self, state, state.icount + budget, raise_on_limit=False)
            return self._dispatch(state, state.icount + budget, raise_on_limit=False)
        except ZeroDivisionError as exc:
            raise ExecutionError("division by zero in simulated program") from exc

    def _start(self, args: tuple[int, ...]) -> ExecState:
        program = self.program
        proc = program.resolve(program.entry)
        if len(args) != proc.num_params:
            raise ExecutionError(
                f"entry {proc.name!r} takes {proc.num_params} args, got {len(args)}"
            )
        regs: list[int] = [0] * proc.num_regs
        regs[: len(args)] = list(args)
        return ExecState(proc, lower_procedure(proc), regs, self.n_check0, self.n_instr0)

    def _dispatch(
        self, state: ExecState, limit: int, raise_on_limit: bool
    ) -> Optional[ExecStats]:
        program = self.program
        cfg = self.config
        hier = self.hierarchy
        access = hier.access
        issue_prefetch = hier.issue_prefetch
        mem_words = self.memory._words
        allocate = self.memory.allocate

        check_cost = cfg.check_cost
        trace_cost = cfg.trace_cost
        detect_base = cfg.detect_base
        detect_per_case = cfg.detect_per_case
        pf_cost = cfg.prefetch_issue_cost

        proc = state.proc
        code_pair = state.code_pair
        mode = state.mode
        code = code_pair[mode]
        regs = state.regs
        ip = state.ip
        stack = state.stack

        cycles = state.cycles
        icount = state.icount
        mem_refs = state.mem_refs
        mem_stall = state.mem_stall
        nchecks = state.nchecks
        bursts = state.bursts
        traced = state.traced
        trace_chg = state.trace_chg
        detect_cyc = state.detect_cyc
        detects = state.detects
        pf_issued = state.pf_issued
        charged = state.charged
        return_value = state.return_value

        n_check = state.n_check
        n_instr = state.n_instr
        tracing = self.tracing_enabled
        sink = self.trace_sink
        # Batched feed: a sink exposing a ref_buffer (the TemporalProfiler)
        # gets raw (pc, addr) pairs appended directly; wrapped/ad-hoc sinks
        # fall back to one call per reference.
        rbuf = getattr(sink, "ref_buffer", None)
        rpush = None if rbuf is None else rbuf.append
        listener = self.check_listener
        hwpref = self.hw_prefetcher
        telem = self.telemetry
        pf_source = self.prefetch_source
        dstate = self.dfsm_state
        pattr = self.proc_attr
        finished = False

        while True:
            t = code[ip]
            ip += 1
            icount += 1
            cycles += 1
            op = t[0]

            if op == OP_LOAD:
                # (op, dst, base, offset, pc, traced, detect)
                addr = regs[t[2]] + t[3]
                if addr & 3 or addr < 0:
                    raise MemoryFault(f"bad load address {addr:#x} at {t[4]}")
                stall = access(addr, cycles)
                cycles += stall
                mem_stall += stall
                mem_refs += 1
                regs[t[1]] = mem_words.get(addr, 0)
                if t[5]:
                    cycles += trace_cost
                    trace_chg += 1
                    if tracing and sink is not None:
                        traced += 1
                        if rpush is not None:
                            rpush((t[4], addr))
                        else:
                            sink(t[4], addr)
                det = t[6]
                if det is not None:
                    dstate, prefetches, cases = det.step(dstate, addr)
                    detects += 1
                    extra = detect_base + detect_per_case * cases
                    cycles += extra
                    detect_cyc += extra
                    if prefetches:
                        for a in prefetches:
                            issue_prefetch(a, cycles, pf_source)
                            cycles += pf_cost
                        pf_issued += len(prefetches)
                if hwpref is not None:
                    hwpref.observe(t[4], addr, cycles, hier)

            elif op == OP_STORE:
                # (op, src, base, offset, pc, traced, detect)
                addr = regs[t[2]] + t[3]
                if addr & 3 or addr < 0:
                    raise MemoryFault(f"bad store address {addr:#x} at {t[4]}")
                stall = access(addr, cycles)
                cycles += stall
                mem_stall += stall
                mem_refs += 1
                mem_words[addr] = regs[t[1]]
                if t[5]:
                    cycles += trace_cost
                    trace_chg += 1
                    if tracing and sink is not None:
                        traced += 1
                        if rpush is not None:
                            rpush((t[4], addr))
                        else:
                            sink(t[4], addr)
                det = t[6]
                if det is not None:
                    dstate, prefetches, cases = det.step(dstate, addr)
                    detects += 1
                    extra = detect_base + detect_per_case * cases
                    cycles += extra
                    detect_cyc += extra
                    if prefetches:
                        for a in prefetches:
                            issue_prefetch(a, cycles, pf_source)
                            cycles += pf_cost
                        pf_issued += len(prefetches)
                if hwpref is not None:
                    hwpref.observe(t[4], addr, cycles, hier)

            elif op == OP_ALUI:
                regs[t[2]] = t[1](regs[t[3]], t[4])
            elif op == OP_ALU:
                regs[t[2]] = t[1](regs[t[3]], regs[t[4]])
            elif op == OP_CMP:
                regs[t[2]] = 1 if t[1](regs[t[3]], regs[t[4]]) else 0
            elif op == OP_BZ:
                if regs[t[1]] == 0:
                    ip = t[2]
            elif op == OP_BNZ:
                if regs[t[1]] != 0:
                    ip = t[2]
            elif op == OP_JMP:
                ip = t[1]
            elif op == OP_MOV:
                regs[t[1]] = regs[t[2]]
            elif op == OP_CONST:
                regs[t[1]] = t[2]

            elif op == OP_CHECK:
                cycles += check_cost
                nchecks += 1
                if mode == CHECKING:
                    n_check -= 1
                    if n_check == 0:
                        mode = INSTRUMENTED
                        n_instr = self.n_instr0
                        code = code_pair[INSTRUMENTED]
                        if telem.enabled:
                            telem.emit(BurstBegin(cycles))
                        if listener is not None:
                            self.dfsm_state = dstate
                            extra = listener.burst_begin(cycles)
                            cycles += extra
                            charged += extra
                            tracing = self.tracing_enabled
                            sink = self.trace_sink
                            rbuf = getattr(sink, "ref_buffer", None)
                            rpush = None if rbuf is None else rbuf.append
                            dstate = self.dfsm_state
                            n_instr = self.n_instr0
                else:
                    n_instr -= 1
                    if n_instr == 0:
                        mode = CHECKING
                        n_check = self.n_check0
                        code = code_pair[CHECKING]
                        bursts += 1
                        if telem.enabled:
                            telem.emit(BurstEnd(cycles, bursts))
                        if listener is not None:
                            self.dfsm_state = dstate
                            extra = listener.burst_end(cycles)
                            cycles += extra
                            charged += extra
                            tracing = self.tracing_enabled
                            sink = self.trace_sink
                            rbuf = getattr(sink, "ref_buffer", None)
                            rpush = None if rbuf is None else rbuf.append
                            dstate = self.dfsm_state
                            # The listener may have switched phase (awake <->
                            # hibernating); its new reload values take effect
                            # for the checking period that starts right now.
                            n_check = self.n_check0

            elif op == OP_CALL:
                # (op, dst, name, args)
                if pattr is not None:
                    # The CALL instruction itself charges to the caller.
                    pattr.charge(proc.name, icount, mem_stall, nchecks,
                                 trace_chg, detect_cyc, pf_issued, charged)
                callee = program.resolve(t[2])
                new_regs = [0] * callee.num_regs
                for k, a in enumerate(t[3]):
                    new_regs[k] = regs[a]
                stack.append((proc, code_pair, ip, regs, t[1]))
                proc = callee
                code_pair = lower_procedure(proc)
                code = code_pair[mode]
                regs = new_regs
                ip = 0

            elif op == OP_RET:
                if pattr is not None:
                    # The RET instruction charges to the returning procedure.
                    pattr.charge(proc.name, icount, mem_stall, nchecks,
                                 trace_chg, detect_cyc, pf_issued, charged)
                value = regs[t[1]] if t[1] is not None else 0
                if not stack:
                    return_value = value
                    finished = True
                    break
                proc, code_pair, ip, regs, dst = stack.pop()
                code = code_pair[mode]
                if dst is not None:
                    regs[dst] = value

            elif op == OP_ALLOC:
                regs[t[1]] = allocate(regs[t[2]])
            elif op == OP_PREFETCH:
                for a in t[1]:
                    issue_prefetch(a, cycles, pf_source)
                    cycles += pf_cost
                pf_issued += len(t[1])
            elif op == OP_HALT:
                finished = True
                break
            elif op == OP_NOP:
                pass
            else:  # pragma: no cover - lowering emits only known opcodes
                raise ExecutionError(f"unknown opcode {op}")

            if icount >= limit:
                if raise_on_limit:
                    raise ExecutionError(
                        f"instruction limit {limit} exceeded in {proc.name}"
                    )
                break

        # Park the loop registers — on suspension for the next slice, on
        # completion so schedulers can still read the final clock/icount.
        if pattr is not None:
            # Park/finish is a charge point too: slice boundaries (and the
            # chunk seals that ride on them) see fully-attributed counters.
            pattr.charge(proc.name, icount, mem_stall, nchecks,
                         trace_chg, detect_cyc, pf_issued, charged)
        self.dfsm_state = dstate
        state.proc = proc
        state.code_pair = code_pair
        state.mode = mode
        state.ip = ip
        state.regs = regs
        state.stack = stack
        state.cycles = cycles
        state.icount = icount
        state.mem_refs = mem_refs
        state.mem_stall = mem_stall
        state.nchecks = nchecks
        state.bursts = bursts
        state.traced = traced
        state.trace_chg = trace_chg
        state.detect_cyc = detect_cyc
        state.detects = detects
        state.pf_issued = pf_issued
        state.charged = charged
        state.n_check = n_check
        state.n_instr = n_instr
        state.return_value = return_value
        if not finished:
            return None
        state.finished = True
        stats = ExecStats()
        stats.cycles = cycles
        stats.instructions = icount
        stats.memory_refs = mem_refs
        stats.mem_stall_cycles = mem_stall
        stats.checks_executed = nchecks
        stats.bursts = bursts
        stats.traced_refs = traced
        stats.trace_charges = trace_chg
        stats.detect_cycles = detect_cyc
        stats.detects_executed = detects
        stats.prefetches_issued = pf_issued
        stats.charged_cycles = charged
        stats.return_value = return_value
        return stats
