"""Tests for the interpreter: semantics, cycle accounting, faults."""

import pytest

from repro.errors import ExecutionError, MemoryFault
from repro.interp.interpreter import Interpreter
from repro.ir import ProcedureBuilder, build_program
from repro.machine.config import CacheGeometry, MachineConfig
from repro.machine.memory import HEAP_BASE, Memory

MACHINE = MachineConfig(
    l1=CacheGeometry(512, 2),
    l2=CacheGeometry(4096, 4),
    l2_latency=10,
    memory_latency=100,
)


@pytest.fixture
def fast():
    """The kernel under test: the default compiled kernel.

    ``tests/test_interpreter_reference.py`` collects these classes again
    with this fixture overridden, so the reference dispatch loop keeps its
    own unit tests.
    """
    return True


def run_main(builders, args=(), memory=None, machine=MACHINE, *, fast, **kwargs):
    program = build_program(builders, entry="main")
    interp = Interpreter(program, memory or Memory(), machine)
    return interp.run(args=args, fast=fast, **kwargs)


class TestArithmetic:
    @pytest.mark.parametrize(
        "kind,a,b,expected",
        [
            ("add", 5, 3, 8),
            ("sub", 5, 3, 2),
            ("mul", 5, 3, 15),
            ("div", 7, 2, 3),
            ("mod", 7, 2, 1),
            ("and", 6, 3, 2),
            ("or", 6, 3, 7),
            ("xor", 6, 3, 5),
            ("shl", 3, 2, 12),
            ("shr", 12, 2, 3),
        ],
    )
    def test_alu_semantics(self, fast, kind, a, b, expected):
        m = ProcedureBuilder("main")
        ra = m.const(None, a)
        rb = m.const(None, b)
        rc = m.alu(kind, None, ra, rb)
        m.ret(rc)
        assert run_main([m], fast=fast).return_value == expected

    @pytest.mark.parametrize(
        "kind,a,b,expected",
        [("lt", 1, 2, 1), ("lt", 2, 2, 0), ("le", 2, 2, 1), ("eq", 3, 3, 1),
         ("ne", 3, 3, 0), ("gt", 4, 3, 1), ("ge", 3, 4, 0)],
    )
    def test_compare_semantics(self, fast, kind, a, b, expected):
        m = ProcedureBuilder("main")
        ra = m.const(None, a)
        rb = m.const(None, b)
        rc = m.cmp(kind, None, ra, rb)
        m.ret(rc)
        assert run_main([m], fast=fast).return_value == expected

    def test_alui_immediate(self, fast):
        m = ProcedureBuilder("main")
        r = m.const(None, 10)
        m.addi(r, r, -4)
        m.ret(r)
        assert run_main([m], fast=fast).return_value == 6

    def test_division_by_zero_wrapped(self, fast):
        m = ProcedureBuilder("main")
        a = m.const(None, 1)
        z = m.const(None, 0)
        m.alu("div", None, a, z)
        m.ret()
        with pytest.raises(ExecutionError, match="division"):
            run_main([m], fast=fast)


class TestControlFlow:
    def test_loop_sums(self, fast):
        m = ProcedureBuilder("main", params=("n",))
        total = m.const(None, 0)
        i = m.const(None, 0)
        m.label("loop")
        cond = m.lt(None, i, m.param("n"))
        m.bz(cond, "end")
        m.add(total, total, i)
        m.addi(i, i, 1)
        m.jmp("loop")
        m.label("end")
        m.ret(total)
        assert run_main([m], args=(10,), fast=fast).return_value == 45

    def test_call_and_return_value(self, fast):
        g = ProcedureBuilder("double", params=("x",))
        r = g.add(None, g.param("x"), g.param("x"))
        g.ret(r)
        m = ProcedureBuilder("main")
        v = m.const(None, 21)
        out = m.reg("out")
        m.call(out, "double", (v,))
        m.ret(out)
        assert run_main([m, g], fast=fast).return_value == 42

    def test_recursion(self, fast):
        f = ProcedureBuilder("fact", params=("n",))
        one = f.const(None, 1)
        cond = f.cmp("le", None, f.param("n"), one)
        f.bnz(cond, "base")
        n1 = f.addi(None, f.param("n"), -1)
        sub = f.reg("sub")
        f.call(sub, "fact", (n1,))
        out = f.mul(None, f.param("n"), sub)
        f.ret(out)
        f.label("base")
        f.ret(one)
        m = ProcedureBuilder("main")
        n = m.const(None, 6)
        r = m.reg("r")
        m.call(r, "fact", (n,))
        m.ret(r)
        assert run_main([m, f], fast=fast).return_value == 720

    def test_halt_stops(self, fast):
        m = ProcedureBuilder("main")
        m.const(None, 1)
        m.halt()
        stats = run_main([m], fast=fast)
        assert stats.return_value == 0
        assert stats.instructions == 2

    def test_entry_arity_checked(self, fast):
        m = ProcedureBuilder("main", params=("a",))
        m.ret(m.param("a"))
        with pytest.raises(ExecutionError, match="takes 1 args"):
            run_main([m], args=(), fast=fast)

    def test_instruction_limit(self, fast):
        m = ProcedureBuilder("main")
        m.label("spin")
        m.jmp("spin")
        with pytest.raises(ExecutionError, match="limit"):
            run_main([m], max_instructions=100, fast=fast)


class TestMemoryOps:
    def test_load_store_roundtrip(self, fast):
        mem = Memory()
        base = mem.allocate(8)
        m = ProcedureBuilder("main")
        b = m.const(None, base)
        v = m.const(None, 99)
        m.store(v, b, 4)
        out = m.load(None, b, 4)
        m.ret(out)
        assert run_main([m], memory=mem, fast=fast).return_value == 99

    def test_alloc_returns_fresh_memory(self, fast):
        m = ProcedureBuilder("main")
        size = m.const(None, 16)
        p1 = m.alloc(None, size)
        p2 = m.alloc(None, size)
        diff = m.sub(None, p2, p1)
        m.ret(diff)
        assert run_main([m], fast=fast).return_value == 16

    def test_unaligned_access_faults(self, fast):
        m = ProcedureBuilder("main")
        b = m.const(None, HEAP_BASE + 2)
        m.load(None, b, 0)
        m.ret()
        with pytest.raises(MemoryFault):
            run_main([m], fast=fast)

    def test_negative_address_faults(self, fast):
        m = ProcedureBuilder("main")
        b = m.const(None, -8)
        m.load(None, b, 0)
        m.ret()
        with pytest.raises(MemoryFault):
            run_main([m], fast=fast)


class TestCycleAccounting:
    def test_pure_compute_is_one_cycle_per_instruction(self, fast):
        m = ProcedureBuilder("main")
        r = m.const(None, 0)
        for _ in range(10):
            m.addi(r, r, 1)
        m.ret(r)
        stats = run_main([m], fast=fast)
        assert stats.cycles == stats.instructions

    def test_cold_miss_adds_memory_latency(self, fast):
        m = ProcedureBuilder("main")
        b = m.const(None, HEAP_BASE)
        m.load(None, b, 0)
        m.ret()
        stats = run_main([m], fast=fast)
        assert stats.mem_stall_cycles == 100
        assert stats.cycles == stats.instructions + 100

    def test_second_access_hits(self, fast):
        m = ProcedureBuilder("main")
        b = m.const(None, HEAP_BASE)
        m.load(None, b, 0)
        m.load(None, b, 0)
        m.ret()
        stats = run_main([m], fast=fast)
        assert stats.mem_stall_cycles == 100
        assert stats.memory_refs == 2

    def test_prefetch_instruction_issues_and_costs(self, fast):
        from repro.ir.instructions import Prefetch
        m = ProcedureBuilder("main")
        m._emit(Prefetch((HEAP_BASE, HEAP_BASE + 64)))
        b = m.const(None, HEAP_BASE)
        m.ret(b)
        program = build_program([m], entry="main")
        interp = Interpreter(program, Memory(), MACHINE)
        stats = interp.run(fast=fast)
        assert stats.prefetches_issued == 2
        assert interp.hierarchy.prefetch.issued == 2

    def test_deterministic(self, fast):
        def once():
            mem = Memory()
            base = mem.allocate(256)
            m = ProcedureBuilder("main")
            b = m.const(None, base)
            i = m.const(None, 0)
            n = m.const(None, 32)
            m.label("loop")
            c = m.lt(None, i, n)
            m.bz(c, "end")
            off = m.muli(None, i, 4)
            addr = m.add(None, b, off)
            m.load(None, addr, 0)
            m.addi(i, i, 1)
            m.jmp("loop")
            m.label("end")
            m.ret()
            return run_main([m], memory=mem, fast=fast).cycles

        assert once() == once()
