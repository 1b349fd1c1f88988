"""CLI surface of the observability stack: status, --telemetry, --from, --by-proc.

Chunk directories and monolithic trace JSONs must be interchangeable inputs
to ``trace --from`` and ``explain --from``; ``status`` must work on live,
finished and dead runs (here: a synthetic status file).
"""

from __future__ import annotations

import json

import pytest

from repro.bench.cli import main as cli_main
from repro.obs.chunks import load_chunk_events, load_chunks
from repro.obs.perfetto import parse_packet_count
from repro.obs.status import StatusWriter, read_status

_FAST = ["--workloads", "vortex", "--scale", "0.05"]


def _task(state="done"):
    return {
        "index": 0,
        "workload": "vortex",
        "level": "dyn",
        "state": state,
        "attempts": 0,
        "icount": 1000,
        "cycles": 4000,
        "epoch": 1,
        "hit_ewma": 0.5,
        "acc_ewma": 0.5,
    }


class TestStatus:
    def test_status_renders_run_dir(self, tmp_path, capsys):
        StatusWriter(tmp_path).write(
            {"plan": "deadbeef", "done": True, "eta_s": None, "tasks": [_task()]},
            force=True,
        )
        assert cli_main(["status", str(tmp_path)]) == 0
        out = capsys.readouterr().out
        assert "deadbeef" in out and "finished" in out and "vortex" in out

    def test_status_without_run_is_a_plain_failure(self, tmp_path, capsys):
        assert cli_main(["status", str(tmp_path)]) == 1
        assert "not a supervised run" in capsys.readouterr().err

    def test_status_defaults_to_cache_run_dir(self, tmp_path, capsys):
        StatusWriter(tmp_path / "run").write(
            {"plan": "cafe", "done": True, "eta_s": None, "tasks": []}, force=True
        )
        assert cli_main(["status", "--cache-dir", str(tmp_path)]) == 0
        assert "cafe" in capsys.readouterr().out

    def test_supervised_run_leaves_readable_status(self, tmp_path, capsys, monkeypatch):
        monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path))
        assert cli_main(["figures", *_FAST, "--task-timeout", "30"]) == 0
        capsys.readouterr()
        assert cli_main(["status", "--cache-dir", str(tmp_path)]) == 0
        out = capsys.readouterr().out
        assert "finished" in out and "vortex" in out and "done" in out
        # The whole Figure 11/12 and Table 2 grid is one plan: all 7 tasks.
        rows = read_status(tmp_path / "run")["tasks"]
        levels = ["base", "dyn", "hds", "nopref", "orig", "prof", "seq"]
        assert sorted(row["level"] for row in rows) == levels
        assert all(row["state"] == "done" for row in rows)


class TestTraceStream:
    def test_stream_then_merge_is_byte_identical(self, tmp_path, capsys):
        live = tmp_path / "live.json"
        merged = tmp_path / "merged.json"
        chunks = tmp_path / "chunks"
        assert cli_main(["trace", *_FAST, "--out", str(live), "--telemetry", str(chunks)]) == 0
        load = load_chunks(chunks)
        assert load.complete and load.summaries
        assert cli_main(["trace", "--from", str(chunks), "--out", str(merged)]) == 0
        assert live.read_bytes() == merged.read_bytes()
        pftrace = tmp_path / "t.pftrace"
        assert cli_main(["trace", "--from", str(chunks), "--out", str(pftrace)]) == 0
        assert parse_packet_count(pftrace.read_bytes()) > 0

    def test_live_perfetto_equals_merged_perfetto(self, tmp_path, capsys):
        live = tmp_path / "live.pftrace"
        merged = tmp_path / "merged.pftrace"
        chunks = tmp_path / "chunks"
        assert cli_main(["trace", *_FAST, "--out", str(live), "--telemetry", str(chunks)]) == 0
        assert cli_main(["trace", "--from", str(chunks), "--out", str(merged)]) == 0
        assert live.read_bytes() == merged.read_bytes()
        assert "perfetto trace written" in capsys.readouterr().out

    def test_stream_flag_is_explain_only(self, tmp_path, capsys):
        with pytest.raises(SystemExit) as excinfo:
            cli_main(["trace", *_FAST, "--stream", str(tmp_path / "chunks")])
        assert excinfo.value.code == 2
        assert "--telemetry" in capsys.readouterr().err
        assert not (tmp_path / "chunks").exists()

    def test_from_monolithic_validates_and_rewrites(self, tmp_path, capsys):
        live = tmp_path / "live.json"
        copy = tmp_path / "copy.json"
        assert cli_main(["trace", *_FAST, "--out", str(live)]) == 0
        assert cli_main(["trace", "--from", str(live), "--out", str(copy)]) == 0
        assert json.loads(copy.read_text())["traceEvents"]

    def test_from_bogus_path_rejected(self, tmp_path, capsys):
        (tmp_path / "junk.json").write_text("not json")
        with pytest.raises(SystemExit) as excinfo:
            cli_main(["trace", "--from", str(tmp_path / "junk.json"), "--out", "x.json"])
        assert excinfo.value.code == 2

    def test_stream_into_used_directory_rejected(self, tmp_path, capsys):
        chunks = tmp_path / "chunks"
        assert cli_main(["trace", *_FAST, "--out", str(tmp_path / "a.json"), "--telemetry", str(chunks)]) == 0
        with pytest.raises(SystemExit) as excinfo:
            cli_main(["trace", *_FAST, "--out", str(tmp_path / "b.json"), "--telemetry", str(chunks)])
        assert excinfo.value.code == 2
        assert "fresh directory" in capsys.readouterr().err


class TestExplain:
    def test_by_proc_renders_procedure_table(self, capsys):
        assert cli_main(["explain", *_FAST, "--by-proc"]) == 0
        out = capsys.readouterr().out
        assert "per-procedure attribution" in out and "procedure" in out

    def test_explain_from_chunk_dir(self, tmp_path, capsys):
        chunks = tmp_path / "chunks"
        assert cli_main(["trace", *_FAST, "--out", str(tmp_path / "t.json"), "--telemetry", str(chunks)]) == 0
        capsys.readouterr()
        assert cli_main(["explain", "--from", str(chunks)]) == 0
        out = capsys.readouterr().out
        assert "cycle attribution" in out
        assert "per-procedure attribution" in out  # logged runs record by-proc
        assert "offline explanation" in out

    def test_explain_from_monolithic_trace(self, tmp_path, capsys):
        live = tmp_path / "t.json"
        assert cli_main(["trace", *_FAST, "--out", str(live)]) == 0
        capsys.readouterr()
        assert cli_main(["explain", "--from", str(live)]) == 0
        assert "cycle attribution" in capsys.readouterr().out

    def test_from_excludes_stream_and_against(self, tmp_path, capsys):
        with pytest.raises(SystemExit) as excinfo:
            cli_main(["explain", "--from", str(tmp_path), "--against", "orig"])
        assert excinfo.value.code == 2

    def test_trace_without_summaries_explains_nothing(self, tmp_path, capsys):
        # A pre-observability trace (no reproSummaries key) is a clear error.
        (tmp_path / "old.json").write_text(json.dumps({"traceEvents": [], "displayTimeUnit": "ms"}))
        with pytest.raises(SystemExit) as excinfo:
            cli_main(["explain", "--from", str(tmp_path / "old.json")])
        assert excinfo.value.code == 2


class TestFiguresStreaming:
    def test_figures_stream_matches_buffered_jsonl(self, tmp_path, capsys, monkeypatch):
        """The figures log is, byte for byte, the compact-JSON lines of its
        typed events — what a buffered JSONL export of them would hold."""
        monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path / "cache"))
        chunks = tmp_path / "chunks"
        metrics = tmp_path / "metrics.json"
        assert (
            cli_main(["figures", *_FAST, "--telemetry", str(chunks), "--metrics", str(metrics)])
            == 0
        )
        chunk_bytes = b"".join(p.read_bytes() for p in sorted(chunks.glob("chunk-*.jsonl")))
        events, load = load_chunk_events(chunks)
        buffered = "".join(json.dumps(e.to_record(), separators=(",", ":")) + "\n" for e in events)
        assert chunk_bytes == buffered.encode()
        assert all(e.kind != "RecordSkipped" for e in events)
        # One run and one summary per live (workload, level) run of the grid.
        assert sum(e.kind == "RunBegin" for e in events) == 7
        assert load.complete and len(load.summaries) == 7
        assert all("by_proc" in doc for doc in load.summaries)
        assert len(json.loads(metrics.read_text())) == 7

    def test_used_telemetry_directory_rejected_before_any_run(self, tmp_path, capsys):
        chunks = tmp_path / "chunks"
        assert cli_main(["figure4", "--telemetry", str(chunks)]) == 0
        with pytest.raises(SystemExit) as excinfo:
            cli_main(["figures", *_FAST, "--telemetry", str(chunks)])
        assert excinfo.value.code == 2
        assert "fresh directory" in capsys.readouterr().err
