"""Temporal data-reference profiler: bursts straight into Sequitur.

Per Section 2.4, traced references are "batched and sent to Sequitur as soon
as they are collected" — the grammar is built online, not from a stored
trace.  The profiler is the interpreter's ``trace_sink`` and implements
both feed disciplines:

* **batched** (the hot path): the interpreter and the fastpath kernel
  append raw ``(pc, addr)`` pairs to :attr:`ref_buffer` directly (they bind
  ``trace_sink.ref_buffer.append`` once per burst) and :meth:`flush`
  interns and feeds the whole buffer to Sequitur in one
  :meth:`~repro.sequitur.sequitur.Sequitur.extend_batch` call; and
* **per-call** (the compatible slow path): the profiler object is callable
  — fault-injection wrappers and the offline bounded sink still deliver one
  :meth:`record` call per reference.

Both disciplines intern references in stream order (``record`` flushes any
buffered prefix first), so the symbol table and the grammar are identical
to the historical one-call-per-reference behavior.

``hot_streams`` analyzes the period's grammar once, when the awake phase
ends, and ``reset`` starts a fresh grammar for the next profiling period,
so no analysis state outlives a period (hibernation references are never
recorded because the phase controller turns the interpreter's
``tracing_enabled`` flag off — "ignored by Sequitur to avoid trace
contamination").
"""

from __future__ import annotations

from repro.analysis.hotstreams import AnalysisConfig, HotStreamAnalyzer
from repro.analysis.stream import HotDataStream
from repro.ir.instructions import Pc
from repro.profiling.trace import SymbolTable
from repro.sequitur.sequitur import Sequitur


class TemporalProfiler:
    """Collects a temporal data reference profile as a Sequitur grammar."""

    def __init__(self) -> None:
        self.symbols = SymbolTable()
        self.sequitur = Sequitur()
        self.total_recorded = 0
        #: pending raw ``(pc, addr)`` pairs, appended by the execution
        #: kernels and consumed by :meth:`flush`
        self.ref_buffer: list[tuple[Pc, int]] = []

    def record(self, pc: Pc, addr: int) -> None:
        """Trace one data reference (the per-call ``trace_sink`` path)."""
        if self.ref_buffer:
            self.flush()
        self.sequitur.extend_batch((self.symbols.intern(pc, addr),))
        self.total_recorded += 1

    # The profiler object itself is a valid trace sink: kernels that know
    # about the buffer bypass this, everything else calls it per reference.
    __call__ = record

    def flush(self) -> None:
        """Intern and feed all buffered references to the grammar."""
        buf = self.ref_buffer
        if buf:
            self.sequitur.extend_batch(self.symbols.intern_batch(buf))
            self.total_recorded += len(buf)
            buf.clear()

    @property
    def trace_length(self) -> int:
        """References in the *current* profiling period (buffered included)."""
        return self.sequitur.length + len(self.ref_buffer)

    def hot_streams(self, config: AnalysisConfig) -> list[HotDataStream]:
        """Hot data streams of the current period (Figure 5, one pass)."""
        self.flush()
        return HotStreamAnalyzer(self.sequitur).find_hot_streams(config)

    def reset(self) -> None:
        """Drop the grammar for a new profiling period (symbol table kept).

        Any buffered references are flushed (interned) first so symbol ids
        keep their stream-order assignment even when a period is discarded.
        """
        self.flush()
        self.sequitur = Sequitur()
