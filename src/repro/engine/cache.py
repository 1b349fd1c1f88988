"""Content-addressed on-disk result cache.

:class:`ResultStore` memoizes :class:`~repro.engine.result.RunResult`s under
a cache root (default ``.repro-cache/``, overridable via the
``REPRO_CACHE_DIR`` environment variable), keyed by the spec fingerprint —
so the key already covers the workload, level, machine, optimizer config
*and* the simulator's own source code (:func:`repro.engine.spec.code_version`).

Entries are plain JSON documents laid out git-style
(``objects/<fp[:2]>/<fp>.json``) and written atomically (tmp file + fsync +
rename), so neither a crashed writer nor a power cut can leave a half-entry
that a later reader would trust.  Anything unreadable — truncated JSON, a
format bump, a fingerprint mismatch — degrades to a cache miss, never an
error; entries that *exist but fail validation* additionally bump the
session ``corrupt`` counter, and :meth:`ResultStore.scan` audits the whole
store on demand (``repro-bench cache stats``).  Every entry carries a sha256
over its canonical envelope, so even a single flipped byte inside the
serialized result is detected and degrades to recomputation — a damaged
cache can cost time, never correctness.

The store keeps per-session hit/miss/stored/evicted/corrupt counters;
:meth:`ResultStore.summary_line` renders them for the CLI's stderr.
"""

from __future__ import annotations

import hashlib
import json
import os
import time
from pathlib import Path
from typing import Optional, Union

from repro.engine.result import RunResult
from repro.engine.spec import RunSpec
from repro.errors import ConfigError

#: Format version stamped into cache entries; bump on layout changes.
#: v2 added the envelope sha256, so a flipped byte inside the serialized
#: result is *detected* (degrades to a miss) instead of silently replayed.
CACHE_FORMAT = 2


def _entry_digest(doc: dict) -> str:
    """sha256 over the canonical envelope, excluding the digest field itself."""
    body = {k: v for k, v in doc.items() if k != "sha256"}
    canonical = json.dumps(body, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(canonical.encode()).hexdigest()

#: Environment variable overriding the default cache root.
CACHE_DIR_ENV = "REPRO_CACHE_DIR"

#: Default cache root, relative to the current working directory.
DEFAULT_CACHE_DIR = ".repro-cache"


def default_cache_root() -> Path:
    """The cache root the CLI uses: ``$REPRO_CACHE_DIR`` or ``.repro-cache``."""
    return Path(os.environ.get(CACHE_DIR_ENV) or DEFAULT_CACHE_DIR)


class ResultStore:
    """Content-addressed store of serialized run results."""

    def __init__(self, root: Union[str, os.PathLike, None] = None) -> None:
        self.root = Path(root) if root is not None else default_cache_root()
        # Session counters (reset with the store object, not the directory).
        self.hits = 0
        self.misses = 0
        self.stored = 0
        self.evicted = 0
        #: Misses where an entry file *existed* but failed validation
        #: (truncated JSON, digest/format/fingerprint mismatch) — i.e. the
        #: corrupt-degrades-to-miss path, not a plain cold miss.
        self.corrupt = 0

    # ------------------------------------------------------------- layout

    def path_for(self, fingerprint: str) -> Path:
        """Entry path for a fingerprint (git-style two-level fan-out)."""
        return self.root / "objects" / fingerprint[:2] / f"{fingerprint}.json"

    # ------------------------------------------------------------ load/store

    def load(self, spec: RunSpec) -> Optional[RunResult]:
        """Replay a cached result for ``spec``, or None on a miss.

        Corrupt, foreign-format or fingerprint-mismatched entries count as
        misses; the cache never raises on bad on-disk state.
        """
        fingerprint = spec.fingerprint()
        path = self.path_for(fingerprint)
        try:
            doc = json.loads(path.read_text())
            if doc.get("format") != CACHE_FORMAT or doc.get("fingerprint") != fingerprint:
                raise ValueError("stale cache entry")
            if doc.get("sha256") != _entry_digest(doc):
                raise ValueError("cache entry digest mismatch")
            result = RunResult.from_dict(doc["result"])
        except FileNotFoundError:
            self.misses += 1
            return None
        except (OSError, ValueError, KeyError, TypeError):
            self.misses += 1
            self.corrupt += 1
            return None
        result.from_cache = True
        self.hits += 1
        return result

    def store(self, spec: RunSpec, result: RunResult) -> Path:
        """Write ``result`` under ``spec``'s fingerprint (atomic, durable)."""
        fingerprint = spec.fingerprint()
        path = self.path_for(fingerprint)
        doc = {
            "format": CACHE_FORMAT,
            "fingerprint": fingerprint,
            "spec": spec.cache_key_dict(),
            "result": result.to_dict(),
        }
        doc["sha256"] = _entry_digest(doc)
        payload = json.dumps(doc, sort_keys=True, separators=(",", ":"))
        self._write_entry(path, payload)
        self.stored += 1
        return path

    # ------------------------------------------------- generic payloads
    # The same content-addressed layout for result documents that are not
    # single RunResults (tenancy co-runs today).  ``kind`` is stored in the
    # envelope and checked on load, so a tenancy fingerprint can never be
    # satisfied by a single-run entry or vice versa.

    def load_payload(self, fingerprint: str, kind: str) -> Optional[dict]:
        """Replay an arbitrary cached document, or None on a miss.

        Same degradation contract as :meth:`load`: anything unreadable or
        mismatched is a miss, never an error.
        """
        path = self.path_for(fingerprint)
        try:
            doc = json.loads(path.read_text())
            if (
                doc.get("format") != CACHE_FORMAT
                or doc.get("fingerprint") != fingerprint
                or doc.get("kind") != kind
            ):
                raise ValueError("stale cache entry")
            if doc.get("sha256") != _entry_digest(doc):
                raise ValueError("cache entry digest mismatch")
            payload = doc["payload"]
        except FileNotFoundError:
            self.misses += 1
            return None
        except (OSError, ValueError, KeyError, TypeError):
            self.misses += 1
            self.corrupt += 1
            return None
        self.hits += 1
        return payload

    def store_payload(self, fingerprint: str, kind: str, payload: dict) -> Path:
        """Write an arbitrary document under ``fingerprint`` (atomic, durable)."""
        path = self.path_for(fingerprint)
        doc = {
            "format": CACHE_FORMAT,
            "fingerprint": fingerprint,
            "kind": kind,
            "payload": payload,
        }
        doc["sha256"] = _entry_digest(doc)
        text = json.dumps(doc, sort_keys=True, separators=(",", ":"))
        self._write_entry(path, text)
        self.stored += 1
        return path

    @staticmethod
    def _write_entry(path: Path, text: str) -> None:
        """Tmp-file + fsync + rename: the entry is either absent, the old
        version, or the complete new version — even across a power cut (the
        fsync pins the data before the rename publishes the name)."""
        path.parent.mkdir(parents=True, exist_ok=True)
        tmp = path.with_suffix(f".tmp.{os.getpid()}")
        with open(tmp, "w") as fh:
            fh.write(text)
            fh.flush()
            os.fsync(fh.fileno())
        os.replace(tmp, path)

    # ------------------------------------------------------------ management

    def entries(self) -> list[Path]:
        """All entry files currently on disk, sorted."""
        objects = self.root / "objects"
        if not objects.is_dir():
            return []
        return sorted(objects.glob("*/*.json"))

    def scan(self) -> dict[str, object]:
        """Audit every entry on disk without touching session counters.

        An entry is *corrupt* when its file exists but fails the same
        validation :meth:`load` applies: unparseable JSON, wrong format
        version, or an envelope fingerprint that disagrees with the file
        name.  Returns ``{"entries": n, "corrupt": n, "corrupt_files":
        [paths]}``.
        """
        corrupt: list[str] = []
        entries = self.entries()
        for path in entries:
            try:
                doc = json.loads(path.read_text())
                if doc.get("format") != CACHE_FORMAT or doc.get("fingerprint") != path.stem:
                    raise ValueError("invalid cache entry")
                if doc.get("sha256") != _entry_digest(doc):
                    raise ValueError("cache entry digest mismatch")
            except (OSError, ValueError, KeyError, TypeError):
                corrupt.append(str(path))
        return {
            "entries": len(entries),
            "corrupt": len(corrupt),
            "corrupt_files": corrupt,
        }

    def stats(self) -> dict[str, object]:
        """Disk state plus this session's counters."""
        entries = self.entries()
        return {
            "root": str(self.root),
            "entries": len(entries),
            "bytes": sum(p.stat().st_size for p in entries),
            "corrupt": self.scan()["corrupt"],
            "session": {
                "hits": self.hits,
                "misses": self.misses,
                "stored": self.stored,
                "evicted": self.evicted,
                "corrupt": self.corrupt,
            },
        }

    def clear(self) -> int:
        """Delete every entry; returns how many were removed."""
        removed = 0
        for path in self.entries():
            path.unlink()
            removed += 1
        return removed

    def _evict(self, path: Path) -> int:
        """Remove one entry; returns the bytes freed (0 if already gone)."""
        try:
            size = path.stat().st_size
            path.unlink()
        except OSError:
            return 0
        self.evicted += 1
        return size

    def gc(
        self,
        max_age_days: Optional[float] = None,
        max_size_mb: Optional[float] = None,
        now: Optional[float] = None,
        dry_run: bool = False,
    ) -> dict[str, object]:
        """Bound the cache by age and/or total size.

        Entries older than ``max_age_days`` (by mtime) are removed first;
        if the survivors still exceed ``max_size_mb``, oldest entries go
        until the store fits.  ``now`` pins the reference clock for tests.
        ``dry_run`` reports the same eviction set without deleting anything
        (and without bumping counters).  Returns
        ``{"evicted": n, "bytes_freed": b, "entries": remaining,
        "bytes": remaining_bytes, "dry_run": bool}``.
        """
        if max_age_days is None and max_size_mb is None:
            raise ConfigError("cache gc needs --max-age-days and/or --max-size-mb")
        if now is None:
            now = time.time()

        def remove(path: Path, size: int) -> int:
            if dry_run:
                return size
            return self._evict(path)

        survivors: list[tuple[float, int, Path]] = []
        evicted = 0
        bytes_freed = 0
        for path in self.entries():
            try:
                stat = path.stat()
            except OSError:
                continue
            if max_age_days is not None and now - stat.st_mtime > max_age_days * 86400.0:
                freed = remove(path, stat.st_size)
                if freed:
                    evicted += 1
                    bytes_freed += freed
                continue
            survivors.append((stat.st_mtime, stat.st_size, path))
        if max_size_mb is not None:
            budget = max_size_mb * 1024.0 * 1024.0
            total = sum(size for _mtime, size, _path in survivors)
            survivors.sort()  # oldest first
            index = 0
            while total > budget and index < len(survivors):
                _mtime, size, path = survivors[index]
                freed = remove(path, size)
                if freed:
                    evicted += 1
                    bytes_freed += freed
                    total -= size
                index += 1
            survivors = survivors[index:]
        if dry_run:
            remaining_bytes = sum(size for _mtime, size, _path in survivors)
            return {
                "evicted": evicted,
                "bytes_freed": bytes_freed,
                "entries": len(survivors),
                "bytes": remaining_bytes,
                "dry_run": True,
            }
        remaining = self.entries()
        return {
            "evicted": evicted,
            "bytes_freed": bytes_freed,
            "entries": len(remaining),
            "bytes": sum(p.stat().st_size for p in remaining),
            "dry_run": False,
        }

    def summary_line(self) -> str:
        """One-line session summary (the CLI prints this to stderr)."""
        line = (
            f"result cache: {self.hits} hits, {self.misses} misses, "
            f"{self.stored} stored"
        )
        if self.evicted:
            line += f", {self.evicted} evicted"
        if self.corrupt:
            line += f", {self.corrupt} corrupt"
        return f"{line} ({self.root})"
