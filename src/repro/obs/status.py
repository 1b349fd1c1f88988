"""Live status for long runs: a machine-readable progress file + renderer.

The supervised runner (:mod:`repro.durability.supervisor`) throttle-writes
``status.json`` into its run directory as it polls worker heartbeats:
per-task state and progress counters (instructions, cycles, optimizer epoch,
cache-hit and prefetch-accuracy EWMAs), each task's recoveries (one
``failures`` reason per failed attempt — ``crash``, ``timeout`` or
``stall`` — and a ``slow`` count of spells with missed heartbeats but
advancing simulation), aggregate counts, and an ETA extrapolated from
completed-task durations.  Writes are atomic
(temp-file + ``os.replace``), so a reader never observes a torn document —
``repro-bench status <run-dir>`` works identically on a run that is still
executing, one that finished, and one whose process was SIGKILLed (the
file's age tells the three apart).

Nothing here touches the simulation: status is derived entirely from
supervisor-side bookkeeping, so the observer-effect-zero invariant is
untouched by construction.
"""

from __future__ import annotations

import json
import os
import time
from pathlib import Path
from typing import Optional, Union

from repro.errors import ConfigError

#: Status document format version.
STATUS_FORMAT = 1
#: File name written into the run directory.
STATUS_NAME = "status.json"
#: A non-done status older than this many seconds renders as "likely dead".
STALE_AFTER_S = 30.0


class StatusWriter:
    """Throttled atomic writer for the ``status.json`` progress file."""

    def __init__(self, root: Union[str, os.PathLike], min_interval: float = 1.0) -> None:
        self.path = Path(root) / STATUS_NAME
        self.path.parent.mkdir(parents=True, exist_ok=True)
        self.min_interval = min_interval
        self._last_write = 0.0

    def write(self, doc: dict, force: bool = False) -> bool:
        """Write ``doc`` if the throttle allows (or ``force``); True if written."""
        now = time.monotonic()
        if not force and now - self._last_write < self.min_interval:
            return False
        self._last_write = now
        doc = {"format": STATUS_FORMAT, "updated_at": time.time(), **doc}
        tmp = self.path.with_name(self.path.name + ".tmp")
        with open(tmp, "w", encoding="utf-8") as fh:
            json.dump(doc, fh, sort_keys=True, separators=(",", ":"))
            fh.flush()
            os.fsync(fh.fileno())
        os.replace(tmp, self.path)
        return True


def read_status(run_dir: Union[str, os.PathLike]) -> dict:
    """Load the status document from a run directory (or a direct file path)."""
    path = Path(run_dir)
    if path.is_dir():
        path = path / STATUS_NAME
    if not path.is_file():
        raise ConfigError(f"no {STATUS_NAME} at {path}: not a supervised run directory")
    with open(path, "r", encoding="utf-8") as fh:
        doc = json.load(fh)
    if not isinstance(doc, dict) or doc.get("format") != STATUS_FORMAT:
        raise ConfigError(f"{path} is not a format-{STATUS_FORMAT} status document")
    return doc


def _fmt_count(n: float) -> str:
    n = float(n)
    for scale, suffix in ((1e9, "G"), (1e6, "M"), (1e3, "k")):
        if n >= scale:
            return f"{n / scale:.1f}{suffix}"
    return f"{int(n)}"


def _fmt_secs(s: float) -> str:
    s = max(0.0, float(s))
    if s >= 3600:
        return f"{s / 3600:.1f}h"
    if s >= 60:
        return f"{s / 60:.1f}m"
    return f"{s:.0f}s"


def render_status(doc: dict, now: Optional[float] = None) -> str:
    """Human rendering of a status document (the ``status`` CLI artifact)."""
    now = time.time() if now is None else now
    age = now - float(doc.get("updated_at", now))
    done = bool(doc.get("done"))
    if done:
        liveness = "finished"
    elif age > STALE_AFTER_S:
        liveness = f"likely dead (no update for {_fmt_secs(age)})"
    else:
        liveness = f"running (updated {_fmt_secs(age)} ago)"

    tasks = doc.get("tasks", [])
    states: dict[str, int] = {}
    for task in tasks:
        state = str(task.get("state", "?"))
        states[state] = states.get(state, 0) + 1
    counts = ", ".join(f"{states[s]} {s}" for s in sorted(states)) or "no tasks"

    lines = [
        f"plan: {doc.get('plan', '?')}  [{liveness}]",
        f"tasks: {len(tasks)} total ({counts})",
    ]
    eta = doc.get("eta_s")
    if not done and isinstance(eta, (int, float)):
        lines.append(f"eta: ~{_fmt_secs(eta)}")

    header = f"  {'#':>3} {'workload':<16} {'level':<6} {'state':<9} {'attempts':>8} {'epoch':>5} {'icount':>8} {'cycles':>8} {'hit':>6} {'acc':>6}"
    lines.append(header)
    for task in tasks:
        recoveries = [str(reason) for reason in task.get("failures", [])]
        if task.get("slow"):
            recoveries.append(f"slow x{task['slow']}")
        note = f"  ({', '.join(recoveries)})" if recoveries else ""
        lines.append(
            "  {index:>3} {workload:<16} {level:<6} {state:<9} {attempts:>8} {epoch:>5} {icount:>8} {cycles:>8} {hit:>6} {acc:>6}{note}".format(
                index=task.get("index", "?"),
                workload=str(task.get("workload", "?"))[:16],
                level=str(task.get("level", "?"))[:6],
                state=str(task.get("state", "?"))[:9],
                attempts=task.get("attempts", 0),
                epoch=int(task.get("epoch", 0)),
                icount=_fmt_count(task.get("icount", 0)),
                cycles=_fmt_count(task.get("cycles", 0)),
                hit=f"{float(task.get('hit_ewma', 0.0)):.2f}",
                acc=f"{float(task.get('acc_ewma', 0.0)):.2f}",
                note=note,
            )
        )
    return "\n".join(lines)
