"""Perfetto protobuf render of a trace: one more view of the chunk log.

:func:`perfetto_trace` turns the Chrome trace document that
:mod:`repro.telemetry.export` lays out from a chunk log (or loads from a
monolithic trace JSON) into a binary perfetto ``Trace`` that
`ui.perfetto.dev <https://ui.perfetto.dev>`_ opens natively.  The track
layout is the Chrome exporter's, so both renders show the same runs,
threads and slices; ``repro-bench trace --out t.pftrace`` selects it.

No protobuf dependency exists in this environment, so the wire format is
hand-encoded.  Only three message types are needed, all shallow:

``Trace``            repeated ``TracePacket packet = 1``
``TracePacket``      ``timestamp = 8`` (varint), ``track_event = 11``,
                     ``trusted_packet_sequence_id = 10`` (varint),
                     ``track_descriptor = 60``
``TrackDescriptor``  ``uuid = 1`` (varint), ``name = 2`` (string)
``TrackEvent``       ``type = 9`` (varint: 1=SLICE_BEGIN, 2=SLICE_END,
                     3=INSTANT), ``track_uuid = 11`` (varint),
                     ``name = 23`` (string)

Field numbers are fixed by the public perfetto schema; varint/length-
delimited encoding is the standard protobuf wire format.  One simulated
cycle maps to one nanosecond of trace time.  Packets are self-delimiting,
so :func:`parse_packet_count` reads any prefix of a trace: a torn tail only
shortens the count.
"""

from __future__ import annotations

from repro.errors import ConfigError

_TYPE_SLICE_BEGIN = 1
_TYPE_SLICE_END = 2
_TYPE_INSTANT = 3

#: Chrome trace phase -> TrackEvent type.
_CHROME_PHASES = {"B": _TYPE_SLICE_BEGIN, "E": _TYPE_SLICE_END, "i": _TYPE_INSTANT}


def _varint(value: int) -> bytes:
    out = bytearray()
    while True:
        bits = value & 0x7F
        value >>= 7
        if value:
            out.append(bits | 0x80)
        else:
            out.append(bits)
            return bytes(out)


def _key(field: int, wire_type: int) -> bytes:
    return _varint((field << 3) | wire_type)


def _field_varint(field: int, value: int) -> bytes:
    return _key(field, 0) + _varint(value)


def _field_bytes(field: int, payload: bytes) -> bytes:
    return _key(field, 2) + _varint(len(payload)) + payload


def _field_string(field: int, text: str) -> bytes:
    return _field_bytes(field, text.encode("utf-8"))


def track_descriptor_packet(uuid: int, name: str, sequence_id: int = 1) -> bytes:
    descriptor = _field_varint(1, uuid) + _field_string(2, name)
    packet = _field_varint(10, sequence_id) + _field_bytes(60, descriptor)
    return _field_bytes(1, packet)


def track_event_packet(
    ts: int, track_uuid: int, event_type: int, name: str = "", sequence_id: int = 1
) -> bytes:
    event = _field_varint(9, event_type) + _field_varint(11, track_uuid)
    if name:
        event += _field_string(23, name)
    packet = _field_varint(8, ts) + _field_varint(10, sequence_id) + _field_bytes(11, event)
    return _field_bytes(1, packet)


def perfetto_trace(document: dict) -> bytes:
    """Render a Chrome trace document (:mod:`repro.telemetry.export`) as Perfetto.

    One track per ``(pid, tid)`` thread of the document, titled
    ``"<process name>: <thread name>"``; its ``B``/``E``/``i`` entries become
    slice-begin, slice-end and instant packets in document order, so a
    balanced Chrome thread is a balanced Perfetto track.  Each run summary
    carrying ``by_proc`` rows adds one track per procedure whose slices are
    that procedure's attribution categories laid end to end from cycle 0,
    so bar lengths read as the per-procedure split.  Raises
    :class:`~repro.errors.ConfigError` on an entry it cannot place.
    """
    entries = document["traceEvents"]
    processes: dict[int, str] = {}
    threads: dict[tuple, str] = {}
    for entry in entries:
        key = (entry["pid"], entry.get("tid", 0))
        if entry["ph"] != "M":
            threads.setdefault(key, f"tid {key[1]}")
        elif entry["name"] in ("thread_name", "process_name"):
            name = str(entry.get("args", {}).get("name", ""))
            if entry["name"] == "thread_name":
                threads[key] = name
            else:
                processes[key[0]] = name
    out = bytearray()
    tracks = {key: uuid for uuid, key in enumerate(threads, start=1)}
    for key, uuid in tracks.items():
        process = processes.get(key[0], f"run {key[0]}")
        out += track_descriptor_packet(uuid, f"{process}: {threads[key]}")
    for entry in entries:
        event_type = _CHROME_PHASES.get(entry["ph"])
        if event_type is None:
            continue
        ts = entry["ts"]
        if not isinstance(ts, int) or ts < 0:
            raise ConfigError(f"cannot render ts {ts!r} as a Perfetto timestamp")
        name = "" if event_type == _TYPE_SLICE_END else str(entry["name"])
        out += track_event_packet(ts, tracks[entry["pid"], entry.get("tid", 0)], event_type, name)
    uuid = len(tracks)
    for doc in document.get("reproSummaries", ()):
        by_proc = doc.get("by_proc") or {}
        label = f"{doc.get('workload', '?')}/{doc.get('level', '?')}"
        for proc_name in sorted(by_proc):
            categories = by_proc[proc_name]
            spent = sum(int(v) for k, v in categories.items() if k != "total")
            uuid += 1
            out += track_descriptor_packet(uuid, f"{label}: proc {proc_name} ({spent} cycles)")
            at = 0
            for category, cycles in categories.items():
                if category == "total" or not cycles:
                    continue
                out += track_event_packet(at, uuid, _TYPE_SLICE_BEGIN, category)
                at += int(cycles)
                out += track_event_packet(at, uuid, _TYPE_SLICE_END)
    return bytes(out)


def parse_packet_count(data: bytes) -> int:
    """Count well-formed top-level packets in a perfetto trace blob.

    A torn tail (partial final packet) ends the count without raising —
    the validation used by tests and the CI streaming job.
    """
    count = 0
    offset = 0
    length = len(data)
    while offset < length:
        # field key varint
        key = 0
        shift = 0
        while True:
            if offset >= length:
                return count
            byte = data[offset]
            offset += 1
            key |= (byte & 0x7F) << shift
            shift += 7
            if not byte & 0x80:
                break
        if key != (1 << 3 | 2):  # only `packet = 1` may appear at top level
            return count
        size = 0
        shift = 0
        while True:
            if offset >= length:
                return count
            byte = data[offset]
            offset += 1
            size |= (byte & 0x7F) << shift
            shift += 7
            if not byte & 0x80:
                break
        if offset + size > length:
            return count
        offset += size
        count += 1
    return count
