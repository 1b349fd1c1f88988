"""Offline (full-trace) profiling — the prior-work [8] workflow.

Before the online framework of this paper, Chilimbi's earlier work
"instrumented a program to collect the trace of its data memory references;
then used a compression algorithm called Sequitur to process the trace
off-line and extract hot data streams" (Section 1).  This module provides
that workflow for simulated programs: collect the complete reference trace
of a run (optionally bounded), compress it, and analyze it — useful both as
ground truth for the sampled online profiles and as the input to the static
prefetching scheme.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from repro.analysis.hotstreams import AnalysisConfig, find_hot_streams
from repro.analysis.stream import HotDataStream
from repro.interp.interpreter import ExecStats, Interpreter
from repro.machine.config import MachineConfig, PAPER_MACHINE
from repro.profiling.profiler import TemporalProfiler
from repro.vulcan.static_edit import instrument_program
from repro.workloads.base import BuiltWorkload


@dataclass
class OfflineProfile:
    """A complete (unsampled) data reference profile of one run."""

    profiler: TemporalProfiler
    stats: ExecStats

    @property
    def trace_length(self) -> int:
        return self.profiler.trace_length

    @property
    def grammar_size(self) -> int:
        return self.profiler.sequitur.grammar_size()

    @property
    def compression_ratio(self) -> float:
        """Trace symbols per grammar symbol (higher = more regular trace)."""
        size = self.grammar_size
        return self.trace_length / size if size else 0.0

    def hot_streams(self, config: Optional[AnalysisConfig] = None) -> list[HotDataStream]:
        """Hot data streams of the *full* trace."""
        config = config if config is not None else AnalysisConfig()
        return find_hot_streams(self.profiler.sequitur, config)

    def coverage(self, config: Optional[AnalysisConfig] = None) -> float:
        """Fraction of all references accounted for by the hot streams.

        The paper's motivating statistic from [8]: hot data streams "account
        for around 90% of program references".
        """
        if not self.trace_length:
            return 0.0
        total_heat = sum(s.heat for s in self.hot_streams(config))
        return min(1.0, total_heat / self.trace_length)


def collect_offline_profile(
    workload: BuiltWorkload,
    machine: MachineConfig = PAPER_MACHINE,
    max_refs: Optional[int] = None,
) -> OfflineProfile:
    """Run ``workload`` tracing *every* data reference into Sequitur.

    Unlike bursty tracing, this is the instrumented version running
    continuously (``nCheck0 = 1``): complete temporal information, at full
    tracing cost — exactly the overhead problem the paper's online framework
    exists to avoid.  ``max_refs`` stops recording (not execution) after a
    bound, keeping grammars tractable on long runs.
    """
    program, _ = instrument_program(workload.program)
    interp = Interpreter(program, workload.memory, machine)
    interp.set_counters(1, 1 << 40)  # immediately and permanently instrumented
    profiler = TemporalProfiler()

    if max_refs is None:
        # The profiler object sink lets the kernels batch into ref_buffer.
        interp.trace_sink = profiler
    else:
        def bounded_sink(pc, addr, _profiler=profiler):
            if _profiler.trace_length < max_refs:
                _profiler.record(pc, addr)

        interp.trace_sink = bounded_sink
    interp.tracing_enabled = True
    stats = interp.run(workload.args)
    profiler.flush()
    return OfflineProfile(profiler=profiler, stats=stats)
