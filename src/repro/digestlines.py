"""Digest-tagged JSON lines: the per-line integrity scheme of every append log.

Each line is ``{"sha256": <hex of the canonical body>, "body": {"format": N,
...}}`` with sorted keys and compact separators.  A line is trusted only if
its body's digest matches and its format version is the reader's, so a torn
tail, a flipped byte or a foreign schema version all read as "unreadable"
rather than as a wrong record.  The run journal
(:mod:`repro.durability.journal`) and the chunk-log manifest
(:mod:`repro.obs.chunks`) both write and validate their lines here.
"""

from __future__ import annotations

import hashlib
import json
from typing import Optional


def _canonical(body: dict) -> str:
    return json.dumps(body, sort_keys=True, separators=(",", ":"))


def encode_tagged_line(body: dict, fmt: int) -> str:
    """One tagged line (no newline) for ``body``, stamped with format ``fmt``."""
    body = {"format": fmt, **body}
    return json.dumps(
        {"sha256": hashlib.sha256(_canonical(body).encode()).hexdigest(), "body": body},
        sort_keys=True,
        separators=(",", ":"),
    )


def decode_tagged_line(line: str, fmt: int) -> Optional[dict]:
    """Digest-check one line; the body dict, or None if torn, tampered or foreign."""
    try:
        record = json.loads(line)
    except json.JSONDecodeError:
        return None
    if not isinstance(record, dict):
        return None
    body = record.get("body")
    digest = record.get("sha256")
    if not isinstance(body, dict) or not isinstance(digest, str):
        return None
    if hashlib.sha256(_canonical(body).encode()).hexdigest() != digest:
        return None
    if body.get("format") != fmt:
        return None
    return body
