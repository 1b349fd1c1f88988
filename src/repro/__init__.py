"""Dynamic hot data stream prefetching for general-purpose programs.

A full-system reproduction of Chilimbi & Hirzel (PLDI 2002) on a simulated
machine substrate.  The top-level names cover the common workflow:

>>> from repro import (OptimizerConfig, run_level)
>>> baseline = run_level("mcf", "orig", passes=4)
>>> optimized = run_level("mcf", "dyn", passes=4)
>>> optimized.overhead_vs(baseline) < 0   # dynamic prefetching wins
True

Sub-packages:

- :mod:`repro.machine`   — caches, memory, timing model
- :mod:`repro.ir`        — the mini-ISA and builder DSL
- :mod:`repro.interp`    — the simulated machine
- :mod:`repro.vulcan`    — static/dynamic binary editing
- :mod:`repro.profiling` — bursty tracing and symbol interning
- :mod:`repro.sequitur`  — online grammar inference
- :mod:`repro.analysis`  — hot-data-stream detection (Figure 5)
- :mod:`repro.dfsm`      — prefix-match DFSM construction and codegen
- :mod:`repro.core`      — the dynamic prefetching optimizer (Figure 1)
- :mod:`repro.workloads` — the six benchmark analogues
- :mod:`repro.bench`     — experiment runner and figure/table regeneration
- :mod:`repro.telemetry` — structured events, metrics and exporters
"""

from repro.analysis import AnalysisConfig, HotDataStream, analyze_grammar, find_hot_streams
from repro.bench.runner import LEVELS, RunResult, run_level, run_workload
from repro.core import DynamicPrefetcher, OptimizerConfig, paper_scale
from repro.dfsm import build_dfsm, generate_handlers
from repro.interp import ExecStats, Interpreter
from repro.ir import ProcedureBuilder, Program, build_program
from repro.machine import MachineConfig, Memory, MemoryHierarchy, PAPER_MACHINE
from repro.profiling import BurstyCounters, TemporalProfiler, overall_sampling_rate
from repro.sequitur import Sequitur
from repro.telemetry import TelemetryRecorder, TelemetrySession, run_metrics
from repro.vulcan import deoptimize, inject_detection, instrument_program
from repro.workloads import ChainMixParams, build_chainmix

__version__ = "1.0.0"

__all__ = [
    "AnalysisConfig",
    "HotDataStream",
    "analyze_grammar",
    "find_hot_streams",
    "LEVELS",
    "RunResult",
    "run_level",
    "run_workload",
    "DynamicPrefetcher",
    "OptimizerConfig",
    "paper_scale",
    "build_dfsm",
    "generate_handlers",
    "ExecStats",
    "Interpreter",
    "ProcedureBuilder",
    "Program",
    "build_program",
    "MachineConfig",
    "Memory",
    "MemoryHierarchy",
    "PAPER_MACHINE",
    "BurstyCounters",
    "TemporalProfiler",
    "overall_sampling_rate",
    "Sequitur",
    "TelemetryRecorder",
    "TelemetrySession",
    "run_metrics",
    "deoptimize",
    "inject_detection",
    "instrument_program",
    "ChainMixParams",
    "build_chainmix",
    "__version__",
]
