"""repro.obs — the event log and its views, for runs of any length.

Three surfaces, all observer-effect-zero (nothing here charges simulated
cycles or perturbs the architectural state):

- :mod:`repro.obs.chunks` / :mod:`repro.obs.stream`: the one on-disk event
  format and the run structure within it.  :class:`StreamingTraceSink`
  writes sealed, digest-tagged chunks with bounded memory;
  :func:`load_chunk_events` reads back the valid prefix, so a SIGKILLed
  run still leaves a loadable log.  Chrome trace JSON and Perfetto
  protobuf (:mod:`repro.obs.perfetto`) are renders of that log, never
  written live.
- :mod:`repro.obs.status`: the atomic ``status.json`` progress file the
  supervised runner maintains, plus its reader/renderer for
  ``repro-bench status``.
- Per-procedure cycle attribution lives in
  :mod:`repro.tracing.attribution` (:class:`ProcAttrRecorder`); the
  streaming sink carries its rows in run-summary manifest records.
"""

from repro.obs.chunks import (
    CHUNK_FORMAT,
    DEFAULT_MAX_BYTES,
    MANIFEST_NAME,
    ChunkLoad,
    StreamingTraceSink,
    chunk_name,
    flush_all_sinks,
    is_chunk_dir,
    load_chunk_events,
    load_chunks,
)
from repro.obs.perfetto import parse_packet_count, perfetto_trace
from repro.obs.status import (
    STATUS_FORMAT,
    STATUS_NAME,
    StatusWriter,
    read_status,
    render_status,
)
from repro.obs.stream import run_summary_doc, split_runs

__all__ = [
    "CHUNK_FORMAT",
    "DEFAULT_MAX_BYTES",
    "MANIFEST_NAME",
    "ChunkLoad",
    "chunk_name",
    "is_chunk_dir",
    "load_chunk_events",
    "load_chunks",
    "parse_packet_count",
    "perfetto_trace",
    "STATUS_FORMAT",
    "STATUS_NAME",
    "StatusWriter",
    "read_status",
    "render_status",
    "StreamingTraceSink",
    "flush_all_sinks",
    "run_summary_doc",
    "split_runs",
]
