"""Loader robustness: empty logs round-trip, unreadable records skip loudly."""

import hashlib
import json

from repro.obs.chunks import (
    CHUNK_FORMAT,
    MANIFEST_NAME,
    chunk_name,
    encode_tagged_line,
    load_chunk_events,
)
from repro.obs.stream import StreamingTraceSink
from repro.telemetry import (
    BurstBegin,
    RecordSkipped,
    RunBegin,
    from_record,
    write_metrics_json,
)


def _log(root, records):
    """A sealed chunk log holding ``records`` verbatim, digests all valid."""
    sink = StreamingTraceSink(root)
    for record in records:
        sink.append(record)
    sink.close()
    return root


class TestEmptySessionRoundTrip:
    def test_zero_events(self, tmp_path):
        events, load = load_chunk_events(_log(tmp_path / "log", []))
        assert events == []
        assert load.complete and load.chunks == 0

    def test_blank_lines_are_not_records(self, tmp_path):
        # A digest-valid chunk of blank lines holds zero records.
        data = b"\n\n\n"
        lines = [
            {"type": "begin"},
            {"type": "chunk", "seq": 0, "file": chunk_name(0), "records": 0,
             "bytes": len(data), "sha256": hashlib.sha256(data).hexdigest()},
            {"type": "end", "chunks": 1, "records": 0},
        ]
        (tmp_path / chunk_name(0)).write_bytes(data)
        (tmp_path / MANIFEST_NAME).write_text(
            "".join(encode_tagged_line(body, CHUNK_FORMAT) + "\n" for body in lines)
        )
        events, load = load_chunk_events(tmp_path)
        assert events == [] and load.complete and load.chunks == 1

    def test_empty_metrics_snapshot(self, tmp_path):
        path = tmp_path / "metrics.json"
        snapshot = {"counters": {}, "gauges": {}, "histograms": {}}
        write_metrics_json(snapshot, path)
        assert json.loads(path.read_text()) == snapshot


class TestMalformedLines:
    def test_bad_lines_become_record_skipped(self, tmp_path):
        records = [
            {"kind": "BurstBegin", "cycle": 1},  # good
            {"kind": "NoSuchEvent", "cycle": 2},  # unknown discriminator
            {"kind": "RunBegin", "cycle": 3},  # missing fields
            {"kind": "BurstBegin", "cycle": 3, "extra": 1},  # extra field
            {"cycle": 3},  # no discriminator at all
            {"kind": "RunBegin", "cycle": 4, "workload": "vpr", "level": "dyn"},  # good
        ]
        events, load = load_chunk_events(_log(tmp_path / "log", records))
        # Digest-valid records are never dropped: the log loads completely
        # and each unreadable record becomes a RecordSkipped at its index.
        assert load.complete and len(load.records) == 6
        assert len(events) == 6
        assert events[0] == BurstBegin(1)
        assert events[5] == RunBegin(4, "vpr", "dyn")
        skipped = events[1:5]
        assert all(isinstance(e, RecordSkipped) for e in skipped)
        assert [e.line_no for e in skipped] == [2, 3, 4, 5]
        assert "NoSuchEvent" in skipped[0].reason
        assert "RunBegin" in skipped[1].reason
        assert "BurstBegin" in skipped[2].reason
        assert "None" in skipped[3].reason
        assert skipped[0].snippet == json.dumps(records[1], separators=(",", ":"))
        assert all(e.cycle == 0 for e in skipped)

    def test_long_bad_line_snippet_truncated(self, tmp_path):
        (event,) = load_chunk_events(_log(tmp_path / "log", [{"kind": "x" * 500}]))[0]
        assert isinstance(event, RecordSkipped)
        assert len(event.snippet) == 120

    def test_record_skipped_round_trips_itself(self, tmp_path):
        original = RecordSkipped(cycle=0, line_no=7, reason="why", snippet="{bad")
        assert from_record(original.to_record()) == original
        events, _load = load_chunk_events(_log(tmp_path / "log", [original.to_record()]))
        assert events == [original]
