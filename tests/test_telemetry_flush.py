"""Chunk-log sealing: buffered events survive SIGTERM and atexit.

The in-process pieces are tested directly (``flush()``, ``flush_all_sinks``);
the actual SIGTERM delivery runs in a subprocess so the handler fires for
real and the -15 exit status is preserved.  The subprocess imports this
checkout's ``src`` tree, located from this file.
"""

import os
import signal
import subprocess
import sys
import textwrap
from pathlib import Path

from repro.obs.chunks import load_chunks
from repro.obs.stream import StreamingTraceSink, flush_all_sinks
from repro.telemetry.events import EventBus, RunBegin

SRC = Path(__file__).resolve().parents[1] / "src"


def _emit(bus, n):
    for i in range(n):
        bus.emit(RunBegin(cycle=i, workload=f"w{i}", level="dyn"))


def _run_script(script, cwd):
    pythonpath = os.pathsep.join(p for p in (str(SRC), os.environ.get("PYTHONPATH")) if p)
    return subprocess.run(
        [sys.executable, "-c", textwrap.dedent(script)],
        capture_output=True,
        text=True,
        env={**os.environ, "PYTHONPATH": pythonpath},
        cwd=cwd,
    )


class TestFlush:
    def test_flush_writes_buffered_events(self, tmp_path):
        sink = StreamingTraceSink(tmp_path / "log")
        bus = EventBus()
        bus.attach(sink)
        _emit(bus, 7)
        sink.flush()
        load = load_chunks(tmp_path / "log")
        assert len(load.records) == 7 and load.ok and not load.complete
        assert all(record["kind"] == "RunBegin" for record in load.records)
        sink.close()

    def test_flush_all_sinks_covers_live_sinks(self, tmp_path):
        roots = [tmp_path / f"log{i}" for i in range(2)]
        sinks = [StreamingTraceSink(root) for root in roots]
        bus = EventBus()
        for sink in sinks:
            bus.attach(sink)
        _emit(bus, 3)
        assert flush_all_sinks() >= 2
        for root in roots:
            assert len(load_chunks(root).records) == 3
        for sink in sinks:
            sink.close()

    def test_closed_sink_flushes_harmlessly(self, tmp_path):
        sink = StreamingTraceSink(tmp_path / "log")
        sink.close()
        sink.flush()
        assert flush_all_sinks() >= 0
        assert load_chunks(tmp_path / "log").complete


class TestSigterm:
    def test_sigterm_flushes_and_preserves_exit_status(self, tmp_path):
        root = tmp_path / "log"
        proc = _run_script(
            f"""
            import os, signal
            from repro.obs.stream import StreamingTraceSink
            from repro.telemetry.events import EventBus, RunBegin

            bus = EventBus()
            bus.attach(StreamingTraceSink({str(root)!r}))
            for i in range(7):
                bus.emit(RunBegin(cycle=i, workload=f"w{{i}}", level="dyn"))
            os.kill(os.getpid(), signal.SIGTERM)
            raise SystemExit("unreachable: SIGTERM must terminate")
            """,
            cwd=tmp_path,
        )
        assert proc.returncode == -signal.SIGTERM, proc.stderr
        load = load_chunks(root)
        # The open buffer was sealed; the end record never was.
        assert load.ok and not load.complete
        assert [record["cycle"] for record in load.records] == list(range(7))

    def test_sigterm_flushes_recorder_jsonl_and_stream_chunks(self, tmp_path):
        """The recorder path (--telemetry DIR) seals on SIGTERM too: the
        shared chunk log's open buffer reaches disk as a valid prefix."""
        chunk_dir = tmp_path / "chunks"
        proc = _run_script(
            f"""
            import os, signal
            from repro.telemetry.events import RunBegin
            from repro.telemetry.session import TelemetryRecorder

            recorder = TelemetryRecorder(events_dir={str(chunk_dir)!r})
            session = recorder.session_for("vpr", "dyn")
            for i in range(1, 6):
                session.bus.emit(RunBegin(cycle=i, workload="vpr", level="dyn"))
            os.kill(os.getpid(), signal.SIGTERM)
            raise SystemExit("unreachable: SIGTERM must terminate")
            """,
            cwd=tmp_path,
        )
        assert proc.returncode == -signal.SIGTERM, proc.stderr
        load = load_chunks(chunk_dir)
        assert load.ok and len(load.records) == 6  # begin_run + 5 emitted events
