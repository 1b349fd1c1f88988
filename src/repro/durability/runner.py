"""Durable single-run execution: slice, checkpoint, resume, finish.

:func:`run_spec_durable` is the checkpointed twin of
:func:`~repro.engine.executor.run_spec`'s simulate path.  It drives the
interpreter through :meth:`~repro.interp.interpreter.Interpreter.run_slice`
in ``checkpoint_every``-instruction slices — slicing is invisible to the
simulated program, so the result is bit-identical to one
:meth:`~repro.interp.interpreter.Interpreter.run` — and writes an
architectural-state checkpoint at each boundary.  A later call with
``resume=True`` restores the newest valid checkpoint and finishes the run
from there; anything wrong with the checkpoint (version bump, digest
mismatch, truncation, foreign spec/code fingerprint) degrades to
recompute-from-start.
"""

from __future__ import annotations

import os
from pathlib import Path
from typing import Callable, Optional, Union

from repro.durability.checkpoint import (
    CheckpointError,
    load_checkpoint,
    save_checkpoint,
)
from repro.engine.levels import finish_workload, prepare_workload
from repro.engine.result import RunResult
from repro.engine.spec import RunSpec
from repro.telemetry.events import CheckpointLoaded
from repro.telemetry.sinks import NULL_SINK

#: Default checkpoint cadence, in simulated instructions, sized from what a
#: save costs.  On a 2-core x86 host a save of a preset ``dyn`` cell takes
#: 35-70 ms and those cells simulate 1.5-2.3M instructions/s, so saving
#: every 2M instructions spends about 3-5 % of a run in saves.  Callers
#: that need more progress on disk pass ``checkpoint_every``.
DEFAULT_CHECKPOINT_EVERY = 2_000_000

#: EWMA smoothing for the per-slice cache-hit / prefetch-accuracy rates
#: reported through the progress callback.
_EWMA_ALPHA = 0.3


class _ProgressTracker:
    """Per-slice progress sampling for :func:`run_spec_durable`.

    Reads only counters the run already maintains (state clock, cache and
    prefetch totals) at slice boundaries — purely descriptive, so the
    observer-effect-zero invariant holds by construction.  Rates are
    per-slice deltas smoothed with an EWMA so the live status reflects
    what the run is doing *now*, not its lifetime average.
    """

    def __init__(self, interp, summary) -> None:
        self._interp = interp
        self._summary = summary
        self._l1_hits = self._l1_total = 0
        self._pf_issued = self._pf_useful = 0
        self.hit_ewma = 0.0
        self.acc_ewma = 0.0

    def sample(self) -> dict:
        interp = self._interp
        state = interp.exec_state
        hier = interp.hierarchy
        l1 = hier.l1
        hits, total = l1.hits, l1.hits + l1.misses
        d_hits, d_total = hits - self._l1_hits, total - self._l1_total
        self._l1_hits, self._l1_total = hits, total
        if d_total > 0:
            self.hit_ewma += _EWMA_ALPHA * (d_hits / d_total - self.hit_ewma)
        pf = hier.prefetch
        d_useful, d_issued = pf.useful - self._pf_useful, pf.issued - self._pf_issued
        self._pf_issued, self._pf_useful = pf.issued, pf.useful
        if d_issued > 0:
            self.acc_ewma += _EWMA_ALPHA * (d_useful / d_issued - self.acc_ewma)
        return {
            "icount": state.icount,
            "cycles": state.cycles,
            "epoch": self._summary.num_cycles if self._summary is not None else 0,
            "hit_ewma": self.hit_ewma,
            "acc_ewma": self.acc_ewma,
        }


def run_spec_durable(
    spec: RunSpec,
    checkpoint_path: Union[str, os.PathLike, None] = None,
    checkpoint_every: int = DEFAULT_CHECKPOINT_EVERY,
    resume: bool = True,
    bus=NULL_SINK,
    stop_after_checkpoints: Optional[int] = None,
    fast: bool = True,
    progress: Optional[Callable[[dict], None]] = None,
) -> Optional[RunResult]:
    """Execute one spec with checkpointing; resumes a valid prior checkpoint.

    Without a ``checkpoint_path`` this is simply a sliced (still
    bit-identical) execution.  ``stop_after_checkpoints`` is the
    crash-simulation hook used by tests, the oracle invariant and the chaos
    harness: after writing that many checkpoints the function returns None —
    from the caller's point of view, the process died mid-run with its
    progress on disk.

    The checkpoint binds to ``spec.fingerprint()`` (which covers the
    simulator's code version): a stale or foreign checkpoint is rejected and
    the run restarts from scratch.  On success the checkpoint is removed.

    ``fast=False`` runs each slice on the reference dispatch loop instead of
    the compiled kernel.  Checkpoints are kernel-agnostic:
    compiled code lives outside the pickled interpreter (weak-keyed on the
    procedure objects) and is rebuilt on first use after a restore, so a run
    may freely checkpoint under one kernel and resume under the other.

    ``progress`` (when given) is called at every slice boundary with a small
    dict — ``icount``, ``cycles``, ``epoch`` (completed optimizer cycles) and
    per-slice EWMAs of the L1 hit rate and prefetch accuracy — the feed for
    the supervisor's live ``status.json``.  Purely descriptive; it never
    touches the simulation.
    """
    fingerprint = spec.fingerprint()
    checkpoint_path = Path(checkpoint_path) if checkpoint_path is not None else None
    prepared = prepare_workload(spec.build(), spec.level, spec.machine, spec.opt)
    resumed = False
    if checkpoint_path is not None and resume and checkpoint_path.is_file():
        try:
            cp = load_checkpoint(checkpoint_path, fingerprint=fingerprint, bus=bus)
        except CheckpointError:
            # Rejected (and reported via the bus): recompute from the start.
            try:
                checkpoint_path.unlink()
            except OSError:
                pass
        else:
            # Swap the restored graph in under the freshly prepared session;
            # metrics-only sessions reconcile purely from the final counters,
            # so re-wiring is exact (the resume-identity oracle pins this).
            prepared.interp = cp.interp
            prepared.summary = cp.summary
            prepared.session.wire(cp.interp)
            resumed = True
            if bus.enabled:
                bus.emit(CheckpointLoaded(
                    cycle=0, workload=spec.workload, level=spec.level,
                    path=str(checkpoint_path), icount=cp.icount,
                ))
    interp = prepared.interp
    if not resumed:
        interp.start(prepared.args)
    tracker = _ProgressTracker(interp, prepared.summary) if progress is not None else None
    saved = 0
    while True:
        stats = interp.run_slice(checkpoint_every, fast=fast)
        if stats is not None:
            # Final sample: the park epilogue leaves the completed clock and
            # icount readable on the state, so status shows the true totals.
            if tracker is not None:
                progress(tracker.sample())
            break
        if tracker is not None:
            progress(tracker.sample())
        if checkpoint_path is not None:
            written = save_checkpoint(
                checkpoint_path,
                interp,
                prepared.summary,
                workload=spec.workload,
                level=spec.level,
                fingerprint=fingerprint,
                bus=bus,
            )
            if written is not None:
                saved += 1
                if stop_after_checkpoints is not None and saved >= stop_after_checkpoints:
                    return None
    if checkpoint_path is not None:
        try:
            checkpoint_path.unlink()
        except OSError:
            pass
    return finish_workload(prepared, stats)
