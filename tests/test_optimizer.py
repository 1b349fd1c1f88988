"""End-to-end tests of the dynamic prefetching optimizer (Figure 1 cycle)."""

import dataclasses

import pytest

from repro.analysis.hotstreams import HotStreamAnalyzer
from repro.analysis.stream import HotDataStream
from repro.bench.runner import run_workload
from repro.core.config import OptimizerConfig, paper_scale
from repro.core.optimizer import AWAKE, HIBERNATING, DynamicPrefetcher, _dedupe_streams
from repro.errors import ConfigError
from repro.interp.interpreter import Interpreter
from repro.machine.config import CacheGeometry, MachineConfig
from repro.resilience.faults import FaultPlan
from repro.resilience.watchdog import WatchdogConfig
from repro.vulcan.static_edit import instrument_program
from repro.workloads import build_named
from repro.workloads.chainmix import build_chainmix

#: A small hierarchy so the small workload actually misses (and prefetching
#: has something to hide).
SMALL_MACHINE = MachineConfig(
    l1=CacheGeometry(512, 2), l2=CacheGeometry(4096, 4), l2_latency=10, memory_latency=100
)


def attach(small_params, small_opt, passes=None, **overrides):
    wl = build_chainmix(small_params, passes=passes)
    program, _ = instrument_program(wl.program)
    interp = Interpreter(program, wl.memory, SMALL_MACHINE)
    opt = dataclasses.replace(small_opt, **overrides)
    optimizer = DynamicPrefetcher(program, interp, SMALL_MACHINE, opt)
    return wl, program, interp, optimizer


class TestConfig:
    def test_defaults_valid(self):
        OptimizerConfig()

    def test_rejects_bad_mode(self):
        with pytest.raises(ConfigError):
            OptimizerConfig(mode="wishful")

    def test_rejects_inject_without_analyze(self):
        with pytest.raises(ConfigError):
            OptimizerConfig(analyze=False, inject=True)

    def test_rejects_bad_head_len(self):
        with pytest.raises(ConfigError):
            OptimizerConfig(head_len=0)

    def test_paper_scale_matches_section_41(self):
        config = paper_scale()
        assert config.counters.n_check0 == 11_940
        assert config.counters.n_instr0 == 60
        assert config.n_awake == 50
        assert config.n_hibernate == 2_450


class TestPhaseCycle:
    def test_completes_multiple_cycles(self, small_params, small_opt):
        wl, program, interp, optimizer = attach(small_params, small_opt, passes=16)
        interp.run(wl.args)
        assert optimizer.summary.num_cycles >= 2

    def test_cycle_stats_recorded(self, small_params, small_opt):
        wl, program, interp, optimizer = attach(small_params, small_opt, passes=16)
        interp.run(wl.args)
        first = optimizer.summary.cycles[0]
        assert first.traced_refs > 0
        assert first.num_streams > 0
        assert first.dfsm_states >= 2 * first.num_streams  # ~2n+1
        assert first.procs_modified > 0

    def test_streams_detected_are_hot_chains(self, small_params, small_opt):
        wl, program, interp, optimizer = attach(small_params, small_opt, passes=16)
        interp.run(wl.args)
        lengths = optimizer.summary.cycles[0].stream_lengths
        # A full chain stream: slot load + peel/loop refs (2/node) + store.
        assert any(length >= small_params.chain_len for length in lengths)

    def test_deopt_restores_program_after_wake(self, small_params, small_opt):
        wl, program, interp, optimizer = attach(small_params, small_opt, passes=16)
        interp.run(wl.args)
        if optimizer.phase == AWAKE:
            assert program.patched_names == set()
        else:
            assert len(program.patched_names) > 0

    def test_prefetches_issued_in_dyn_mode(self, small_params, small_opt):
        wl, program, interp, optimizer = attach(small_params, small_opt, passes=16)
        stats = interp.run(wl.args)
        assert stats.prefetches_issued > 0
        assert interp.hierarchy.prefetch.useful > 0

    def test_nopref_mode_never_prefetches(self, small_params, small_opt):
        wl, program, interp, optimizer = attach(small_params, small_opt, passes=16, mode="nopref")
        stats = interp.run(wl.args)
        assert stats.detects_executed > 0
        assert stats.prefetches_issued == 0

    def test_analysis_charge_billed(self, small_params, small_opt):
        wl, program, interp, optimizer = attach(small_params, small_opt, passes=16)
        stats = interp.run(wl.args)
        cycles = optimizer.summary.cycles
        expected = sum(SMALL_MACHINE.analysis_cost_per_symbol * c.traced_refs for c in cycles)
        assert stats.charged_cycles == expected

    def test_prof_level_traces_but_never_injects(self, small_params, small_opt):
        wl, program, interp, optimizer = attach(
            small_params, small_opt, passes=16, analyze=False, inject=False
        )
        stats = interp.run(wl.args)
        assert stats.traced_refs > 0
        assert stats.detects_executed == 0
        assert all(c.num_streams == 0 for c in optimizer.summary.cycles)

    def test_hibernation_pauses_tracing(self, small_params, small_opt):
        wl, program, interp, optimizer = attach(small_params, small_opt, passes=16)
        interp.run(wl.args)
        # During hibernation the profiler grammar is untouched; all recorded
        # references come from awake phases only.
        per_cycle = optimizer.summary.cycles[0].traced_refs
        assert optimizer.profiler.total_recorded <= per_cycle * (optimizer.summary.num_cycles + 1) * 1.5

    def test_phase_attribute_transitions(self, small_params, small_opt):
        wl, program, interp, optimizer = attach(small_params, small_opt, passes=16)
        assert optimizer.phase == AWAKE
        interp.run(wl.args)
        assert optimizer.phase in (AWAKE, HIBERNATING)

    def test_determinism(self, small_params, small_opt):
        def once():
            wl, program, interp, optimizer = attach(small_params, small_opt, passes=12)
            stats = interp.run(wl.args)
            return stats.cycles, optimizer.summary.num_cycles

        assert once() == once()


#: (workload, passes, optimizer config, profiling periods it analyzes at
#: least); the pass counts make the first two runs span two periods.
ANALYSIS_RUNS = {
    "vpr": ("vpr", 16, None, 2),
    "phaseshift-watchdog": ("phaseshift", 168, OptimizerConfig(watchdog=WatchdogConfig()), 2),
    "phaseshift-faults": ("phaseshift", None, OptimizerConfig(faults=FaultPlan(seed=3)), 1),
}


@pytest.mark.parametrize("run", ANALYSIS_RUNS.values(), ids=ANALYSIS_RUNS.keys())
def test_each_profiling_period_is_analyzed_once(run, monkeypatch):
    """No grammar is analyzed twice: each period's grammar is analyzed once,
    when the awake phase ends, and the next period profiles into a fresh
    one.  That is why the analysis carries no state from call to call."""
    name, passes, opt, min_periods = run
    grammars = []  # holding every grammar keeps the ids below unique
    analyze = HotStreamAnalyzer.find_hot_streams

    def spy(self, config):
        grammars.append(self.seq)
        return analyze(self, config)

    monkeypatch.setattr(HotStreamAnalyzer, "find_hot_streams", spy)
    run_workload(build_named(name, passes=passes), "dyn", opt=opt)
    assert len(grammars) >= min_periods
    assert len({id(seq) for seq in grammars}) == len(grammars)


class TestDedupeStreams:
    def make(self, symbols, heat=10, rule_id=0):
        return HotDataStream(tuple(symbols), heat=heat, rule_id=rule_id)

    def test_same_head_keeps_longest(self):
        a = self.make([1, 2, 3, 4, 5], heat=50, rule_id=1)
        b = self.make([1, 2, 3], heat=90, rule_id=2)
        kept = _dedupe_streams([a, b], head_len=2)
        assert kept == [a]

    def test_contiguous_subsequence_dropped(self):
        full = self.make([1, 2, 3, 4, 5, 6], heat=50, rule_id=1)
        mid = self.make([3, 4, 5], heat=80, rule_id=2)
        kept = _dedupe_streams([full, mid], head_len=2)
        assert kept == [full]

    def test_non_subsequence_kept(self):
        a = self.make([1, 2, 3, 4], heat=50, rule_id=1)
        b = self.make([4, 3, 2, 1], heat=40, rule_id=2)
        kept = _dedupe_streams([a, b], head_len=2)
        assert len(kept) == 2

    def test_numeric_boundary_no_false_substring(self):
        # [1, 23] must not match inside [12, 3] via string concatenation.
        a = self.make([12, 3, 4, 5], heat=50, rule_id=1)
        b = self.make([1, 23], heat=40, rule_id=2)
        kept = _dedupe_streams([a, b], head_len=1)
        assert len(kept) == 2

    def test_result_sorted_by_heat(self):
        a = self.make([1, 2, 3], heat=10, rule_id=1)
        b = self.make([7, 8, 9], heat=99, rule_id=2)
        kept = _dedupe_streams([a, b], head_len=2)
        assert [s.heat for s in kept] == [99, 10]
