"""Chunked streaming trace format: sealing, loading, crash tolerance.

The load-side contract is adversarial: flip or truncate ANY byte of the
last sealed chunk (or the manifest) and the loader must return the valid
prefix — never raise, never silently accept the corruption.  The property
tests below literally iterate every byte position of a small directory.
"""

from __future__ import annotations

import json

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import ConfigError
from repro.obs.chunks import (
    MANIFEST_NAME,
    chunk_name,
    is_chunk_dir,
    load_chunk_events,
    load_chunks,
)
from repro.obs.stream import StreamingTraceSink
from repro.telemetry.events import RunBegin


def _records(n):
    # Fixed-width fields, so every serialized line has the same length.
    return [
        {"kind": "RunBegin", "cycle": 1000 + i, "workload": f"w{i:03d}", "level": "dyn"}
        for i in range(n)
    ]


#: Bytes of one serialized ``_records`` line, newline included.
_LINE = len(json.dumps(_records(1)[0], separators=(",", ":"))) + 1


def _write_dir(root, n=20, per_chunk=5, close=True, summary=None):
    """``n`` records, sealed every ``per_chunk`` by a byte bound."""
    writer = StreamingTraceSink(root, max_bytes=per_chunk * _LINE)
    for record in _records(n):
        writer.append(record)
    if summary is not None:
        writer.note_run_summary(summary)
    if close:
        writer.close()
    return writer


class TestRoundTrip:
    def test_records_round_trip_in_order(self, tmp_path):
        _write_dir(tmp_path / "c", n=23, per_chunk=5)
        load = load_chunks(tmp_path / "c")
        assert load.records == _records(23)
        assert load.complete and load.ok
        assert load.chunks == 5  # 4 full seals + the tail seal on close

    def test_summary_documents_survive(self, tmp_path):
        doc = {"workload": "vpr", "level": "dyn", "cycles": 7}
        _write_dir(tmp_path / "c", n=3, summary=doc)
        load = load_chunks(tmp_path / "c")
        assert load.summaries == [doc]

    def test_typed_event_view(self, tmp_path):
        _write_dir(tmp_path / "c", n=4)
        events, load = load_chunk_events(tmp_path / "c")
        assert load.complete
        assert all(isinstance(e, RunBegin) for e in events)
        assert [e.cycle for e in events] == [1000, 1001, 1002, 1003]

    def test_append_once_refuses_existing_manifest(self, tmp_path):
        _write_dir(tmp_path / "c", n=1)
        with pytest.raises(ConfigError, match="already holds a manifest"):
            StreamingTraceSink(tmp_path / "c")

    def test_missing_manifest_is_a_usage_error(self, tmp_path):
        with pytest.raises(ConfigError, match="not a chunk directory"):
            load_chunks(tmp_path)
        assert not is_chunk_dir(tmp_path)

    def test_close_is_idempotent(self, tmp_path):
        writer = _write_dir(tmp_path / "c", n=2, close=False)
        writer.close()
        writer.close()
        assert load_chunks(tmp_path / "c").complete

    def test_concatenated_chunks_match_jsonl_serialization(self, tmp_path):
        _write_dir(tmp_path / "c", n=11, per_chunk=3)
        data = b"".join(
            path.read_bytes() for path in sorted((tmp_path / "c").glob("chunk-*.jsonl"))
        )
        expected = b"".join(
            (json.dumps(r, separators=(",", ":")) + "\n").encode() for r in _records(11)
        )
        assert data == expected


class TestCrashTolerance:
    """A SIGKILL leaves a valid prefix; tampering never loads silently."""

    def test_unsealed_buffer_is_simply_absent(self, tmp_path):
        writer = _write_dir(tmp_path / "c", n=13, per_chunk=5, close=False)
        # Simulate SIGKILL: drop the writer without seal/close.
        del writer
        load = load_chunks(tmp_path / "c")
        assert load.records == _records(10)  # two sealed chunks survive
        assert load.ok and not load.complete

    def test_torn_part_file_is_ignored(self, tmp_path):
        _write_dir(tmp_path / "c", n=10, per_chunk=5)
        (tmp_path / "c" / (chunk_name(99) + ".part")).write_bytes(b"torn garbage")
        load = load_chunks(tmp_path / "c")
        assert load.complete and load.records == _records(10)

    def test_flip_any_byte_of_last_chunk(self, tmp_path):
        _write_dir(tmp_path / "c", n=10, per_chunk=5)
        last = tmp_path / "c" / chunk_name(1)
        pristine = last.read_bytes()
        for pos in range(len(pristine)):
            corrupt = bytearray(pristine)
            corrupt[pos] ^= 0xFF
            last.write_bytes(bytes(corrupt))
            load = load_chunks(tmp_path / "c")  # must not raise
            assert load.records == _records(5), f"flip at byte {pos} not detected"
            assert load.dropped == 1 and not load.complete
            assert "chunk-00000001" in load.notes[0]
        last.write_bytes(pristine)
        assert load_chunks(tmp_path / "c").complete

    def test_truncate_last_chunk_at_any_length(self, tmp_path):
        _write_dir(tmp_path / "c", n=10, per_chunk=5)
        last = tmp_path / "c" / chunk_name(1)
        pristine = last.read_bytes()
        for cut in range(len(pristine)):
            last.write_bytes(pristine[:cut])
            load = load_chunks(tmp_path / "c")
            assert load.records == _records(5), f"truncation to {cut} bytes not detected"
            assert load.dropped == 1

    def test_truncate_manifest_at_any_length(self, tmp_path):
        _write_dir(tmp_path / "c", n=10, per_chunk=5)
        manifest = tmp_path / "c" / MANIFEST_NAME
        pristine = manifest.read_bytes()
        for cut in range(len(pristine)):
            manifest.write_bytes(pristine[:cut])
            load = load_chunks(tmp_path / "c")  # must not raise
            # Whatever loads must be a prefix of the written records.
            assert load.records == _records(len(load.records))
            assert len(load.records) in (0, 5, 10)
        manifest.write_bytes(pristine)

    def test_deleted_chunk_file_ends_prefix(self, tmp_path):
        _write_dir(tmp_path / "c", n=15, per_chunk=5)
        (tmp_path / "c" / chunk_name(1)).unlink()
        load = load_chunks(tmp_path / "c")
        assert load.records == _records(5)
        assert load.dropped == 1 and "missing" in load.notes[0]


@settings(max_examples=25, deadline=None)
@given(
    n=st.integers(min_value=0, max_value=60),
    max_bytes=st.integers(min_value=1, max_value=400),
    payload=st.text(max_size=12),
)
def test_round_trip_property(tmp_path_factory, n, max_bytes, payload):
    root = tmp_path_factory.mktemp("chunks") / "c"
    writer = StreamingTraceSink(root, max_bytes=max_bytes)
    records = [{"kind": "x", "i": i, "payload": payload} for i in range(n)]
    for record in records:
        writer.append(record)
    writer.close()
    load = load_chunks(root)
    assert load.records == records
    assert load.complete and load.ok
