"""Architectural-state checkpoints: snapshot a run mid-flight, resume exactly.

A checkpoint captures the *complete* state of one simulated run at an
instruction-count boundary — the interpreter with its parked
:class:`~repro.interp.interpreter.ExecState` (frames, registers, call stack,
counter machine), the simulated memory image, both cache levels with every
stats lane, and whatever the level attached: profiler buffers, the Sequitur
grammar (flattened iteratively, see ``Sequitur.__getstate__``), the
optimizer/watchdog scoreboards and the fault injector's PRNG streams.  The
whole object graph goes through one :mod:`pickle` dump so shared references
(lowered-code caches, the optimizer's interpreter backpointer) are preserved,
which is what makes resume bit-identical to straight-through execution.

On-disk format (version :data:`CHECKPOINT_FORMAT`)::

    <one JSON header line>\\n
    <pickle payload bytes>

The header carries the format version, the payload's sha256, the payload
length, and the run's identity (workload, level, spec fingerprint, icount,
cycles).  :func:`load_checkpoint` refuses — with a typed
:class:`CheckpointError` naming the failed gate — on a version bump, a
digest mismatch, a truncated payload or a foreign spec fingerprint; callers
degrade to recompute-from-start, never to wrong results.  Writes are atomic
(tmp file + fsync + rename) so a crash mid-save leaves the previous
checkpoint intact.

Saving is best-effort by design: transient unpicklable state (the fault
injector's corrupt-record closure while a burst is active) makes
:func:`save_checkpoint` return ``None`` and the run continue uncheckpointed —
a checkpoint is an optimization, never a failure mode.
"""

from __future__ import annotations

import hashlib
import json
import os
import pickle
from dataclasses import dataclass
from pathlib import Path
from typing import Optional, Union

from repro.errors import ReproError

#: Format version of the checkpoint file; bump on any layout change — a
#: loader must refuse foreign versions, never guess at them.
CHECKPOINT_FORMAT = 1


class CheckpointError(ReproError):
    """A checkpoint failed validation (version/digest/truncation/fingerprint).

    ``reason`` is a short machine-readable tag naming the failed gate:
    ``format``, ``digest``, ``truncated``, ``fingerprint`` or ``unreadable``.
    """

    def __init__(self, reason: str, message: str) -> None:
        super().__init__(message)
        self.reason = reason


@dataclass
class Checkpoint:
    """A restored run: the interpreter graph plus the header metadata."""

    interp: object
    summary: Optional[object]
    workload: str
    level: str
    fingerprint: str
    icount: int
    cycles: int


def save_checkpoint(
    path: Union[str, os.PathLike],
    interp,
    summary,
    *,
    workload: str,
    level: str,
    fingerprint: str,
) -> Optional[Path]:
    """Atomically write a checkpoint of a mid-slice run; None if unpicklable.

    ``interp`` must be suspended (``start()`` called, last ``run_slice``
    returned None).  The interpreter and the attached optimizer summary are
    pickled as one graph; ``fingerprint`` should be the run's
    :meth:`~repro.engine.spec.RunSpec.fingerprint`, which covers the
    simulator's code version — so stale checkpoints self-invalidate across
    code edits exactly like stale cache entries do.
    """
    path = Path(path)
    state = interp.exec_state
    try:
        payload = pickle.dumps(
            {"interp": interp, "summary": summary}, protocol=pickle.HIGHEST_PROTOCOL
        )
    except Exception:  # transient unpicklable state: skip, don't fail
        return None
    header = {
        "format": CHECKPOINT_FORMAT,
        "sha256": hashlib.sha256(payload).hexdigest(),
        "payload_bytes": len(payload),
        "workload": workload,
        "level": level,
        "fingerprint": fingerprint,
        "icount": state.icount if state is not None else 0,
        "cycles": state.cycles if state is not None else 0,
    }
    blob = json.dumps(header, sort_keys=True, separators=(",", ":")).encode() + b"\n" + payload
    path.parent.mkdir(parents=True, exist_ok=True)
    tmp = path.with_suffix(f".tmp.{os.getpid()}")
    with open(tmp, "wb") as fh:
        fh.write(blob)
        fh.flush()
        os.fsync(fh.fileno())
    os.replace(tmp, path)
    return path


def read_header(path: Union[str, os.PathLike]) -> dict:
    """Parse and format-check a checkpoint's JSON header (no payload read)."""
    path = Path(path)
    try:
        with open(path, "rb") as fh:
            line = fh.readline()
        header = json.loads(line)
        if not isinstance(header, dict):
            raise ValueError("header is not an object")
    except (OSError, ValueError) as exc:
        raise CheckpointError("unreadable", f"{path}: unreadable header: {exc}") from exc
    if header.get("format") != CHECKPOINT_FORMAT:
        raise CheckpointError(
            "format",
            f"{path}: checkpoint format {header.get('format')!r} "
            f"(this build reads {CHECKPOINT_FORMAT})",
        )
    return header


def load_checkpoint(
    path: Union[str, os.PathLike],
    fingerprint: Optional[str] = None,
) -> Checkpoint:
    """Validate and restore a checkpoint; :class:`CheckpointError` on any gate.

    Gates, in order: header readable and format current; spec ``fingerprint``
    matches (when given — it covers the code version, so a checkpoint from an
    edited simulator is refused, not misloaded); payload complete; payload
    sha256 matches.  The error's ``reason`` names the gate that failed.
    """
    path = Path(path)
    header = read_header(path)
    if fingerprint is not None and header.get("fingerprint") != fingerprint:
        raise CheckpointError(
            "fingerprint",
            f"{path}: checkpoint is for a different spec/code version",
        )
    try:
        with open(path, "rb") as fh:
            fh.readline()
            payload = fh.read()
    except OSError as exc:
        raise CheckpointError("unreadable", f"{path}: {exc}") from exc
    expected = int(header.get("payload_bytes", -1))
    if len(payload) != expected:
        raise CheckpointError(
            "truncated",
            f"{path}: payload is {len(payload)} bytes, header promises {expected}",
        )
    if hashlib.sha256(payload).hexdigest() != header.get("sha256"):
        raise CheckpointError("digest", f"{path}: payload sha256 mismatch")
    try:
        state = pickle.loads(payload)
        interp, summary = state["interp"], state["summary"]
    except Exception as exc:
        raise CheckpointError("unreadable", f"{path}: payload unpicklable: {exc}") from exc
    return Checkpoint(
        interp=interp,
        summary=summary,
        workload=str(header.get("workload", "")),
        level=str(header.get("level", "")),
        fingerprint=str(header.get("fingerprint", "")),
        icount=int(header.get("icount", 0)),
        cycles=int(header.get("cycles", 0)),
    )
