"""StreamingTraceSink: byte identity with the live events, Perfetto render, run splits.

The sink's contract is that the chunk log is a pure serialization of the
event stream: the compact JSON of each record, in emission order, chunked.
The heavyweight end-to-end version of this (full workload, Chrome render
comparison) lives in the ``obs`` verify section; these tests pin the
mechanism on synthetic events.
"""

from __future__ import annotations

import json

import pytest

from repro.errors import ConfigError
from repro.obs.chunks import load_chunk_events, load_chunks
from repro.obs.perfetto import parse_packet_count, perfetto_trace
from repro.obs.stream import (
    StreamingTraceSink,
    run_summary_doc,
    split_runs,
)
from repro.telemetry.events import (
    BurstBegin,
    BurstEnd,
    CacheMiss,
    EventBus,
    RunBegin,
    RunEnd,
    SpanBegin,
    SpanEnd,
)
from repro.telemetry.export import chrome_trace_document
from repro.telemetry.sinks import ListSink


def _sample_run(bus, workload="vpr", base=0):
    bus.emit(RunBegin(cycle=base, workload=workload, level="dyn"))
    bus.emit(SpanBegin(cycle=base + 1, span_id=1, parent_id=0, name="run", category="run", detail=""))
    bus.emit(BurstBegin(cycle=base + 2))
    bus.emit(CacheMiss(cycle=base + 3, level="L1", block=2, stall=18))
    bus.emit(BurstEnd(cycle=base + 5, index=0))
    bus.emit(SpanEnd(cycle=base + 6, span_id=1))
    bus.emit(RunEnd(cycle=base + 9, instructions=5, bursts=1))


class TestDualSinkIdentity:
    def test_chunks_byte_identical_to_buffered_jsonl(self, tmp_path):
        bus = EventBus()
        live = ListSink()
        stream = StreamingTraceSink(tmp_path / "chunks", max_bytes=150)
        bus.attach(live)
        bus.attach(stream)
        _sample_run(bus)
        _sample_run(bus, workload="mcf", base=100)
        stream.close()
        chunk_bytes = b"".join(
            p.read_bytes() for p in sorted((tmp_path / "chunks").glob("chunk-*.jsonl"))
        )
        buffered = "".join(
            json.dumps(e.to_record(), separators=(",", ":")) + "\n" for e in live.events
        )
        assert chunk_bytes == buffered.encode()
        events, load = load_chunk_events(tmp_path / "chunks")
        assert load.complete and load.chunks > 1 and events == live.events

    def test_existing_manifest_refused(self, tmp_path):
        StreamingTraceSink(tmp_path / "c").close()
        with pytest.raises(ConfigError, match="already holds a manifest"):
            StreamingTraceSink(tmp_path / "c")

    def test_flush_seals_partial_buffer(self, tmp_path):
        stream = StreamingTraceSink(tmp_path / "c")
        bus = EventBus()
        bus.attach(stream)
        _sample_run(bus)
        stream.flush()
        # Sealed without close: the events are already durable on disk.
        load = load_chunks(tmp_path / "c")
        assert len(load.records) == 7 and not load.complete


class TestPerfettoSidecar:
    def test_perfetto_disabled(self, tmp_path):
        """No live Perfetto sidecar: the sink writes only the manifest and
        its chunks, and Perfetto is rendered from them afterwards."""
        stream = StreamingTraceSink(tmp_path / "c", max_bytes=100)
        bus = EventBus()
        bus.attach(stream)
        _sample_run(bus)
        stream.close()
        names = sorted(p.name for p in (tmp_path / "c").iterdir())
        assert names[0] == "MANIFEST.jsonl" and len(names) > 2
        assert all(name.startswith("chunk-") and name.endswith(".jsonl") for name in names[1:])
        assert load_chunks(tmp_path / "c").complete


def _varint(data, offset):
    value = shift = 0
    while True:
        byte = data[offset]
        offset += 1
        value |= (byte & 0x7F) << shift
        shift += 7
        if not byte & 0x80:
            return value, offset


def _fields(data):
    """Decode one protobuf message into ``{field: [value, ...]}``."""
    out, offset = {}, 0
    while offset < len(data):
        key, offset = _varint(data, offset)
        if key & 7 == 0:
            value, offset = _varint(data, offset)
        else:
            size, offset = _varint(data, offset)
            value, offset = data[offset:offset + size], offset + size
        out.setdefault(key >> 3, []).append(value)
    return out


def _decode(trace):
    """Track names by uuid, and ``(uuid, type, name)`` per track event."""
    tracks, events = {}, []
    for packet in _fields(trace).get(1, []):
        fields = _fields(packet)
        if 60 in fields:
            descriptor = _fields(fields[60][0])
            tracks[descriptor[1][0]] = descriptor[2][0].decode()
        else:
            event = _fields(fields[11][0])
            name = event.get(23, [b""])[0].decode()
            events.append((event[11][0], event[9][0], name))
    return tracks, events


class TestPerfettoRender:
    """The Perfetto render of a chunk log: tracks, balance, torn tails."""

    SUMMARIES = [
        {"workload": "vpr", "level": "dyn", "by_proc": {
            "main": {"total": 9, "user_work": 5, "memory_stall": 4},
            "walk": {"total": 3, "user_work": 3, "memory_stall": 0},
        }},
        {"workload": "mcf", "level": "dyn"},
    ]

    def _document(self, tmp_path):
        stream = StreamingTraceSink(tmp_path / "c", max_bytes=100)
        bus = EventBus()
        bus.attach(stream)
        _sample_run(bus, workload="vpr")
        _sample_run(bus, workload="mcf", base=50)
        for doc in self.SUMMARIES:
            stream.note_run_summary(doc)
        stream.close()
        events, load = load_chunk_events(tmp_path / "c")
        return chrome_trace_document(split_runs(events), summaries=load.summaries)

    def test_one_track_per_run_thread_and_procedure(self, tmp_path):
        document = self._document(tmp_path)
        tracks, events = _decode(perfetto_trace(document))
        threads = {(e["pid"], e["tid"]) for e in document["traceEvents"] if e["name"] == "thread_name"}
        assert len(threads) == 10  # 2 runs x 5 Chrome threads
        assert len(tracks) == len(threads) + 2  # + vpr's two procedures
        assert sum(name.startswith("vpr/dyn: proc ") for name in tracks.values()) == 2
        assert "mcf/dyn: profiling bursts" in tracks.values()
        assert {uuid for uuid, _, _ in events} <= set(tracks)

    def test_slices_balance_on_every_track(self, tmp_path):
        _tracks, events = _decode(perfetto_trace(self._document(tmp_path)))
        depth = {}
        for uuid, kind, _name in events:
            if kind == 1:
                depth[uuid] = depth.get(uuid, 0) + 1
            elif kind == 2:
                depth[uuid] = depth.get(uuid, 0) - 1
                assert depth[uuid] >= 0, "slice end without a begin"
        assert depth and all(d == 0 for d in depth.values())
        kinds = {kind for _, kind, _ in events}
        assert kinds == {1, 2, 3}  # B, E and i all rendered

    def test_torn_tail_only_shortens_packet_count(self, tmp_path):
        data = perfetto_trace(self._document(tmp_path))
        packets = parse_packet_count(data)
        assert packets == len(_fields(data)[1])
        counts = [parse_packet_count(data[:cut]) for cut in range(len(data) + 1)]
        assert counts[-1] == packets
        assert all(a <= b for a, b in zip(counts, counts[1:]))


class TestRunSplits:
    def test_split_runs_on_run_begin(self, tmp_path):
        stream = StreamingTraceSink(tmp_path / "c")
        bus = EventBus()
        bus.attach(stream)
        _sample_run(bus, workload="vpr")
        _sample_run(bus, workload="mcf", base=50)
        stream.close()
        events, _load = load_chunk_events(tmp_path / "c")
        runs = split_runs(events)
        assert [label for label, _ in runs] == ["vpr/dyn", "mcf/dyn"]
        assert all(len(evs) == 7 for _, evs in runs)

    def test_pre_run_events_get_fallback_label(self):
        runs = split_runs([SpanEnd(cycle=1, span_id=9)])
        assert len(runs) == 1 and runs[0][0] == "?"


def test_run_summary_doc_shape():
    from repro.interp.interpreter import ExecStats
    from repro.machine.config import PAPER_MACHINE

    stats = ExecStats()
    stats.icount = 10
    stats.cycles = 10
    doc = run_summary_doc("vpr", "dyn", stats, PAPER_MACHINE)
    assert doc["workload"] == "vpr" and doc["level"] == "dyn"
    assert doc["attribution"]["total"] == 10
    assert "by_proc" not in doc
