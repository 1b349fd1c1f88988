"""The chunk log: the one on-disk event format, its writer and its loader.

A chunk directory is the record of one execution's telemetry events
(serialized :meth:`~repro.telemetry.events.Event.to_record` dicts, one
compact-JSON line each).  :class:`StreamingTraceSink`, an ordinary event
sink, is its only writer and holds one bounded buffer: records accumulate
in it, and when it reaches ``max_bytes`` (or the sink is flushed or closed)
it is *sealed*:

1. the buffered lines are written to ``chunk-NNNNNNNN.jsonl.part``,
   flushed and fsync'd,
2. the ``.part`` file is renamed to ``chunk-NNNNNNNN.jsonl`` (sealing is
   atomic: a chunk either exists complete or not at all),
3. a digest-tagged line naming the chunk — its sequence number, record
   count, byte size and content sha256 — is appended (flush + fsync) to
   ``MANIFEST.jsonl`` (:func:`encode_tagged_line`).

Crash tolerance is therefore by construction, not by recovery code: every
live sink registers with SIGTERM/atexit hooks that seal its open buffer
(the exit status still says "killed by SIGTERM"), a SIGKILL at any instant
loses at most the open buffer (bounded by ``max_bytes``) plus one torn
manifest line, and :func:`load_chunks` validates line digests and chunk
content hashes in order, stopping at the first invalid entry — the
surviving prefix is always a valid trace, torn or tampered suffixes are
*dropped and counted*, never silently accepted, and corruption never
raises.

``cat chunk-*.jsonl`` is the whole event log in emission order.  Chrome
trace JSON and Perfetto protobuf traces are renders of it
(``repro-bench trace --from <dir>``).

``summary`` manifest records carry per-run summary documents (cycle
attribution, per-procedure rows) so chunk directories are self-describing:
``repro-bench explain --from <dir>`` renders them without re-simulating.
"""

from __future__ import annotations

import atexit
import hashlib
import json
import os
import signal
import threading
import weakref
from dataclasses import dataclass, field
from pathlib import Path
from typing import Optional, Union

from repro.errors import ConfigError
from repro.telemetry.events import Event, RecordSkipped, from_record

#: Chunk/manifest format version; foreign versions stop the loader's prefix.
CHUNK_FORMAT = 1
#: Manifest file name inside a chunk directory.
MANIFEST_NAME = "MANIFEST.jsonl"
#: Default seal threshold: buffered bytes before a chunk is sealed.
DEFAULT_MAX_BYTES = 1 << 20


#: One compact record line, as ``json.dumps(record, separators=(",", ":"))``
#: writes it, without building an encoder per record.
_encode_record = json.JSONEncoder(separators=(",", ":")).encode


def chunk_name(seq: int) -> str:
    return f"chunk-{seq:08d}.jsonl"


# ------------------------------------------------------- manifest lines
# Each manifest line is ``{"sha256": <hex of the canonical body>, "body":
# {"format": N, ...}}`` with sorted keys and compact separators.  A line is
# trusted only if its body's digest matches and its format version is the
# reader's, so a torn tail, a flipped byte or a foreign schema version all
# read as "unreadable" rather than as a wrong record.


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


# ---------------------------------------------------------------- writing


class StreamingTraceSink:
    """Event sink writing a chunk directory with bounded memory.

    Append-once: a directory that already holds a manifest is refused —
    resumed or repeated runs stream into a fresh directory, so a chunk
    directory is always the record of exactly one execution.
    """

    def __init__(self, root: Union[str, os.PathLike], max_bytes: int = DEFAULT_MAX_BYTES) -> None:
        self.root = Path(root)
        self.root.mkdir(parents=True, exist_ok=True)
        manifest_path = self.root / MANIFEST_NAME
        if manifest_path.exists():
            raise ConfigError(
                f"chunk directory {self.root} already holds a manifest; "
                "stream each run into a fresh directory"
            )
        self.max_bytes = max(1, max_bytes)
        self._buffer: list[str] = []
        self._buffered_bytes = 0
        self._seq = 0
        self.records_total = 0
        self._manifest = open(manifest_path, "w", encoding="utf-8")
        self._append_manifest({"type": "begin"})
        self._closed = False
        _install_seal_hooks()
        _LIVE_SINKS.add(self)

    def handle(self, event: Event) -> None:
        self.append(event.to_record())

    def append(self, record: dict) -> None:
        """Buffer one record; seals a chunk when the buffer fills."""
        line = _encode_record(record) + "\n"
        self._buffer.append(line)
        self._buffered_bytes += len(line)
        self.records_total += 1
        if self._buffered_bytes >= self.max_bytes:
            self.seal()

    def seal(self) -> None:
        """Seal the open buffer into a durable chunk (no-op when empty).

        fsync-then-rename: once the manifest line for a chunk exists, the
        chunk's bytes are already durable, so the loader may trust any
        manifest entry whose content hash matches.
        """
        if not self._buffer:
            return
        data = "".join(self._buffer).encode("utf-8")
        name = chunk_name(self._seq)
        part = self.root / (name + ".part")
        with open(part, "wb") as fh:
            fh.write(data)
            fh.flush()
            os.fsync(fh.fileno())
        os.replace(part, self.root / name)
        self._append_manifest(
            {
                "type": "chunk",
                "seq": self._seq,
                "file": name,
                "records": len(self._buffer),
                "bytes": len(data),
                "sha256": hashlib.sha256(data).hexdigest(),
            }
        )
        self._seq += 1
        self._buffer.clear()
        self._buffered_bytes = 0

    def note_run_summary(self, doc: dict) -> None:
        """Record one finished run's summary (attribution, per-proc rows).

        Sealed first, so the summary always refers to fully-durable events.
        """
        self.seal()
        self._append_manifest({"type": "summary", "doc": doc})

    def flush(self) -> None:
        """Interrupt-safety hook (SIGTERM/atexit): seal whatever is buffered."""
        if not self._closed:
            self.seal()

    def close(self) -> None:
        """Seal the tail and append the ``end`` record; idempotent."""
        if self._closed:
            return
        self.seal()
        self._append_manifest(
            {"type": "end", "chunks": self._seq, "records": self.records_total}
        )
        self._manifest.close()
        self._closed = True

    def _append_manifest(self, body: dict) -> None:
        self._manifest.write(encode_tagged_line(body, CHUNK_FORMAT) + "\n")
        self._manifest.flush()
        os.fsync(self._manifest.fileno())


# ------------------------------------------------------------ seal hooks

#: Weak registry of live sinks; entries vanish with their sinks.
_LIVE_SINKS: "weakref.WeakSet[StreamingTraceSink]" = weakref.WeakSet()
_HOOKS_LOCK = threading.Lock()
_HOOKS_INSTALLED = False


def flush_all_sinks() -> int:
    """Seal every live sink's open buffer; count the sinks flushed.

    Safe to call at any time (idempotent, never raises): a sink whose files
    are already broken is skipped rather than aborting the sweep.
    """
    flushed = 0
    for sink in list(_LIVE_SINKS):
        try:
            sink.flush()
            flushed += 1
        except Exception:
            continue
    return flushed


def _sigterm_flush(signum, frame) -> None:
    flush_all_sinks()
    previous = _sigterm_flush.previous
    if callable(previous):
        previous(signum, frame)
    else:
        # Default disposition: re-deliver so the exit status still says
        # "killed by SIGTERM" instead of silently swallowing the signal.
        signal.signal(signal.SIGTERM, signal.SIG_DFL)
        os.kill(os.getpid(), signal.SIGTERM)


_sigterm_flush.previous = None


def _install_seal_hooks() -> None:
    """Register the atexit + SIGTERM seal hooks, once per process.

    Deferred to first sink construction so merely importing never touches
    signal state; worker threads (where ``signal.signal`` raises ValueError)
    just skip the signal half and keep atexit.
    """
    global _HOOKS_INSTALLED
    with _HOOKS_LOCK:
        if _HOOKS_INSTALLED:
            return
        _HOOKS_INSTALLED = True
    atexit.register(flush_all_sinks)
    try:
        previous = signal.getsignal(signal.SIGTERM)
        if previous not in (signal.SIG_IGN, _sigterm_flush):
            _sigterm_flush.previous = previous if previous is not signal.SIG_DFL else None
            signal.signal(signal.SIGTERM, _sigterm_flush)
    except ValueError:
        # Not the main thread: atexit coverage only.
        pass


# ---------------------------------------------------------------- loading


@dataclass
class ChunkLoad:
    """What :func:`load_chunks` recovered from a chunk directory."""

    records: list[dict] = field(default_factory=list)
    summaries: list[dict] = field(default_factory=list)
    #: sealed chunks whose manifest line and content hash both validated
    chunks: int = 0
    #: manifest entries (chunk or otherwise) dropped as torn/tampered/missing
    dropped: int = 0
    #: human-readable reasons, one per dropped entry (first failure stops
    #: the prefix, so at most one chunk reason plus the torn-tail note)
    notes: list[str] = field(default_factory=list)
    #: the writer's ``end`` record was reached with nothing dropped
    complete: bool = False

    @property
    def ok(self) -> bool:
        return self.dropped == 0


def load_chunks(root: Union[str, os.PathLike]) -> ChunkLoad:
    """Load the valid prefix of a chunk directory; never raises on corruption.

    Validation is strict and ordered: manifest line digests, chunk sequence
    numbers, chunk byte sizes and content sha256 hashes must all match.  The
    first failure ends the prefix — everything before it loads, everything
    after it (including any torn ``.part`` file) is dropped and counted in
    ``dropped``/``notes``.  A directory without a manifest is a usage error
    and raises :class:`~repro.errors.ConfigError` (nothing was ever written
    there, so there is no "valid prefix" to return).
    """
    root = Path(root)
    manifest_path = root / MANIFEST_NAME
    if not manifest_path.is_file():
        raise ConfigError(f"no {MANIFEST_NAME} in {root}: not a chunk directory")
    load = ChunkLoad()
    expected_seq = 0
    with open(manifest_path, "r", encoding="utf-8", errors="replace") as fh:
        lines = fh.read().splitlines()
    ended = False
    for line_no, line in enumerate(lines, start=1):
        if not line.strip():
            continue
        body = decode_tagged_line(line, CHUNK_FORMAT)
        if body is None:
            load.dropped += 1
            load.notes.append(f"manifest line {line_no}: torn or tampered; prefix ends")
            break
        kind = body.get("type")
        if kind == "begin":
            continue
        if kind == "summary":
            doc = body.get("doc")
            if isinstance(doc, dict):
                load.summaries.append(doc)
            continue
        if kind == "end":
            ended = True
            break
        if kind != "chunk":
            load.dropped += 1
            load.notes.append(f"manifest line {line_no}: unknown type {kind!r}; prefix ends")
            break
        records = _load_chunk_entry(root, body, expected_seq, load, line_no)
        if records is None:
            break
        load.records.extend(records)
        load.chunks += 1
        expected_seq += 1
    load.complete = ended and load.dropped == 0
    return load


def _load_chunk_entry(
    root: Path, body: dict, expected_seq: int, load: ChunkLoad, line_no: int
) -> Optional[list[dict]]:
    """Validate and read one manifest-listed chunk; None ends the prefix."""

    def drop(reason: str) -> None:
        load.dropped += 1
        load.notes.append(f"manifest line {line_no}: {reason}; prefix ends")

    name = body.get("file")
    if body.get("seq") != expected_seq or not isinstance(name, str):
        drop(f"chunk out of sequence (want seq {expected_seq})")
        return None
    path = root / name
    if os.path.basename(name) != name or not path.is_file():
        drop(f"chunk file {name!r} missing")
        return None
    data = path.read_bytes()
    if len(data) != body.get("bytes"):
        drop(f"chunk {name} is {len(data)} bytes, manifest says {body.get('bytes')}")
        return None
    if hashlib.sha256(data).hexdigest() != body.get("sha256"):
        drop(f"chunk {name} content hash mismatch")
        return None
    records: list[dict] = []
    try:
        for raw in data.decode("utf-8").splitlines():
            if not raw:
                continue
            record = json.loads(raw)
            if not isinstance(record, dict):
                raise ConfigError("chunk record is not an object")
            records.append(record)
    except (json.JSONDecodeError, UnicodeDecodeError, ConfigError) as exc:
        # Digest-valid but unparseable means the writer itself misbehaved;
        # still a dropped suffix, never an exception to the caller.
        drop(f"chunk {name} undecodable despite matching hash: {exc}")
        return None
    if len(records) != body.get("records"):
        drop(f"chunk {name} holds {len(records)} records, manifest says {body.get('records')}")
        return None
    return records


def load_chunk_events(root: Union[str, os.PathLike]) -> tuple[list[Event], ChunkLoad]:
    """Typed-event view of :func:`load_chunks` (records round-trip exactly).

    A digest-valid record that still fails event reconstruction (a foreign
    writer, a renamed kind, missing or extra fields) degrades to a visible
    :class:`~repro.telemetry.events.RecordSkipped` at its index, carrying its
    1-based line number in ``cat chunk-*.jsonl``, the reason and a snippet.
    """
    load = load_chunks(root)
    events: list[Event] = []
    for index, record in enumerate(load.records):
        try:
            events.append(from_record(record))
        except ConfigError as exc:
            events.append(
                RecordSkipped(
                    cycle=0,
                    line_no=index + 1,
                    reason=str(exc),
                    snippet=json.dumps(record, separators=(",", ":"))[:120],
                )
            )
    return events, load


def is_chunk_dir(path: Union[str, os.PathLike]) -> bool:
    """True when ``path`` is a directory holding a chunk manifest."""
    return (Path(path) / MANIFEST_NAME).is_file()
