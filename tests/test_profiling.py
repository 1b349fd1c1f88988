"""Tests for symbol interning, the temporal profiler, and counter math."""

import pytest

from repro.errors import ConfigError
from repro.ir.instructions import Pc
from repro.profiling import (
    PAPER_COUNTERS,
    PAPER_N_AWAKE,
    PAPER_N_HIBERNATE,
    BurstyCounters,
    DataRef,
    SymbolTable,
    TemporalProfiler,
    overall_sampling_rate,
)


class TestSymbolTable:
    def test_intern_is_stable(self):
        table = SymbolTable()
        pc = Pc("f", 0)
        assert table.intern(pc, 0x10) == table.intern(pc, 0x10)

    def test_distinct_refs_distinct_ids(self):
        table = SymbolTable()
        a = table.intern(Pc("f", 0), 0x10)
        b = table.intern(Pc("f", 0), 0x14)
        c = table.intern(Pc("f", 1), 0x10)
        assert len({a, b, c}) == 3

    def test_lookup_roundtrip(self):
        table = SymbolTable()
        sid = table.intern(Pc("g", 2), 0x20)
        assert table.lookup(sid) == DataRef(Pc("g", 2), 0x20)

    def test_decode(self):
        table = SymbolTable()
        ids = [table.intern(Pc("f", i), i * 4) for i in range(3)]
        refs = table.decode(ids)
        assert [r.addr for r in refs] == [0, 4, 8]

    def test_len_and_contains(self):
        table = SymbolTable()
        table.intern(Pc("f", 0), 0)
        assert len(table) == 1
        assert DataRef(Pc("f", 0), 0) in table
        assert DataRef(Pc("f", 1), 0) not in table

    def test_intern_batch_matches_intern(self):
        pairs = [(Pc("f", k % 3), 0x10 * (k % 5)) for k in range(40)]
        one = SymbolTable()
        one.intern(Pc("g", 0), 0)
        batch = SymbolTable()
        batch.intern(Pc("g", 0), 0)
        assert batch.intern_batch(pairs) == [one.intern(pc, addr) for pc, addr in pairs]
        assert batch._refs == one._refs
        assert list(batch._ids.items()) == list(one._ids.items())
        # Keys stay DataRefs even though the batch passes plain tuples.
        assert all(type(ref) is DataRef for ref in batch._ids)
        assert all(type(ref) is DataRef for ref in batch._refs)


class TestProfiler:
    def test_record_appends_to_grammar(self):
        profiler = TemporalProfiler()
        for k in range(4):
            profiler.record(Pc("f", 0), 0x100 + 4 * (k % 2))
        assert profiler.trace_length == 4
        assert profiler.total_recorded == 4

    def test_reset_keeps_symbols_drops_grammar(self):
        profiler = TemporalProfiler()
        profiler.record(Pc("f", 0), 0x100)
        profiler.reset()
        assert profiler.trace_length == 0
        assert len(profiler.symbols) == 1
        assert profiler.total_recorded == 1

    def test_repeating_pattern_forms_rules(self):
        profiler = TemporalProfiler()
        for _ in range(8):
            profiler.record(Pc("f", 0), 0x100)
            profiler.record(Pc("f", 1), 0x200)
        assert len(profiler.sequitur.rules) > 1


class TestCounters:
    def test_burst_period(self):
        counters = BurstyCounters(90, 10)
        assert counters.burst_period == 100
        assert counters.burst_sampling_rate == pytest.approx(0.1)

    def test_hibernating_preserves_burst_period(self):
        counters = BurstyCounters(90, 10)
        hibernating = counters.hibernating()
        assert hibernating.burst_period == counters.burst_period
        assert hibernating.n_instr0 == 1

    def test_rejects_zero(self):
        with pytest.raises(ConfigError):
            BurstyCounters(0, 10)

    def test_paper_settings_sampling_rate(self):
        """Section 4.1: 0.5% burst rate; 1s of profiling per 50s."""
        assert PAPER_COUNTERS.burst_sampling_rate == pytest.approx(0.005)
        overall = overall_sampling_rate(PAPER_COUNTERS, PAPER_N_AWAKE, PAPER_N_HIBERNATE)
        assert overall == pytest.approx(0.005 * 50 / 2500)

    def test_overall_rate_formula(self):
        counters = BurstyCounters(9900, 100)
        rate = overall_sampling_rate(counters, n_awake=1, n_hibernate=0)
        assert rate == pytest.approx(0.01)

    def test_overall_rate_validates(self):
        with pytest.raises(ConfigError):
            overall_sampling_rate(BurstyCounters(10, 10), 0, 5)
