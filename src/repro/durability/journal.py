"""Write-ahead run journal: crash-safe progress log for one plan execution.

One journal file per :class:`~repro.engine.spec.RunPlan`, keyed by the plan
fingerprint (a sha256 over the spec fingerprints, which themselves cover the
workload, config *and* the simulator's code version — so an interrupted plan
from an edited checkout can never be resumed against foreign results).

Each line is an independent JSON record::

    {"sha256": "<hex of canonical body>", "body": {...}}

appended with flush + fsync before the executor moves on, so a SIGKILL at
any instant leaves at worst one torn final line.  Body types:

``plan_begin``   plan fingerprint + task count (written once, first)
``task_done``    plan index, spec fingerprint and the **inline serialized
                 result** — replaying needs no other file to exist
``task_failed``  plan index, spec fingerprint, error string (diagnostic only;
                 a later attempt may still append ``task_done``)
``plan_end``     the plan completed; the journal is deletable

:meth:`RunJournal.replay` validates each line's digest and shape and skips
anything unreadable, counting it — a flipped byte or torn tail degrades that
entry to recomputation, never to a wrong result.
"""

from __future__ import annotations

import hashlib
import os
from dataclasses import dataclass, field
from pathlib import Path
from typing import Optional, Union

from repro.digestlines import decode_tagged_line, encode_tagged_line
from repro.engine.spec import RunPlan
from repro.telemetry.events import JournalReplayed
from repro.telemetry.sinks import NULL_SINK

#: Journal line format version; bump on schema changes (foreign versions are
#: skipped on replay, like any other unreadable line).
JOURNAL_FORMAT = 1


def plan_fingerprint(plan: RunPlan) -> str:
    """Content address of a whole plan: sha256 over its spec fingerprints."""
    digest = hashlib.sha256()
    for spec in plan:
        digest.update(spec.fingerprint().encode())
        digest.update(b"\0")
    return digest.hexdigest()


def journal_path(root: Union[str, os.PathLike], plan_fp: str) -> Path:
    """Journal file for one plan under the journal root."""
    return Path(root) / f"{plan_fp}.jsonl"


@dataclass
class JournalReplay:
    """What :meth:`RunJournal.replay` recovered from disk."""

    #: spec fingerprint -> serialized RunResult dict (last write wins)
    results: dict[str, dict] = field(default_factory=dict)
    #: total well-formed entries read
    entries: int = 0
    #: unreadable/tampered lines skipped
    corrupt: int = 0
    #: a ``plan_end`` record was seen (the plan had completed)
    completed: bool = False


class RunJournal:
    """Append-only, fsync'd, per-line-integrity-tagged progress log."""

    def __init__(self, path: Union[str, os.PathLike], bus=NULL_SINK) -> None:
        self.path = Path(path)
        self.bus = bus
        self.appended = 0

    # ------------------------------------------------------------- writing

    def append(self, body: dict) -> None:
        """Append one record (flush + fsync before returning).

        The write-ahead contract: once :meth:`append` returns, the record
        survives a SIGKILL of this process.
        """
        line = encode_tagged_line(body, JOURNAL_FORMAT)
        self.path.parent.mkdir(parents=True, exist_ok=True)
        with open(self.path, "a", encoding="utf-8") as fh:
            fh.write(line + "\n")
            fh.flush()
            os.fsync(fh.fileno())
        self.appended += 1

    def plan_begin(self, plan_fp: str, total: int) -> None:
        self.append({"type": "plan_begin", "plan": plan_fp, "total": total})

    def task_done(self, index: int, fingerprint: str, result_doc: dict) -> None:
        self.append({
            "type": "task_done",
            "index": index,
            "fingerprint": fingerprint,
            "result": result_doc,
        })

    def task_failed(self, index: int, fingerprint: str, error: str) -> None:
        self.append({
            "type": "task_failed",
            "index": index,
            "fingerprint": fingerprint,
            "error": error,
        })

    def plan_end(self) -> None:
        self.append({"type": "plan_end"})

    def discard(self) -> None:
        """Remove the journal file (after a successful plan)."""
        try:
            self.path.unlink()
        except OSError:
            pass

    # ------------------------------------------------------------- replay

    def replay(self, plan_fp: Optional[str] = None) -> JournalReplay:
        """Read the journal back, skipping (and counting) anything unreadable.

        When ``plan_fp`` is given, a ``plan_begin`` naming a different plan
        invalidates the whole file (treated as empty): the journal's own name
        is the plan fingerprint, so this only triggers on a mis-copied file.
        """
        replay = JournalReplay()
        try:
            text = self.path.read_text(encoding="utf-8", errors="replace")
        except OSError:
            return replay
        for raw in text.splitlines():
            if not raw.strip():
                continue
            body = decode_tagged_line(raw, JOURNAL_FORMAT)
            if body is None or (
                body.get("type") == "task_done" and not isinstance(body.get("result"), dict)
            ):
                replay.corrupt += 1
                continue
            replay.entries += 1
            kind = body.get("type")
            if kind == "plan_begin":
                if plan_fp is not None and body.get("plan") != plan_fp:
                    return JournalReplay(corrupt=replay.corrupt)
            elif kind == "task_done":
                replay.results[str(body["fingerprint"])] = body["result"]
            elif kind == "plan_end":
                replay.completed = True
        if self.bus.enabled and (replay.results or replay.corrupt):
            self.bus.emit(JournalReplayed(
                cycle=0, path=str(self.path),
                replayed=len(replay.results), corrupt=replay.corrupt,
            ))
        return replay
