"""Live status file: atomic writes, throttling, reader validation, rendering."""

from __future__ import annotations

import json

import pytest

from repro.errors import ConfigError
from repro.obs.status import (
    STALE_AFTER_S,
    STATUS_NAME,
    StatusWriter,
    read_status,
    render_status,
)


def _doc(state="running", done=False):
    return {
        "plan": "abc123",
        "done": done,
        "eta_s": 12.5,
        "tasks": [
            {
                "index": 0,
                "workload": "vpr",
                "level": "dyn",
                "state": state,
                "attempts": 1,
                "icount": 2_500_000,
                "cycles": 9_100_000,
                "epoch": 3,
                "hit_ewma": 0.84,
                "acc_ewma": 0.87,
            }
        ],
    }


class TestWriter:
    def test_write_and_read_round_trip(self, tmp_path):
        writer = StatusWriter(tmp_path / "run")
        assert writer.write(_doc(), force=True)
        doc = read_status(tmp_path / "run")
        assert doc["plan"] == "abc123"
        assert doc["tasks"][0]["workload"] == "vpr"
        assert "updated_at" in doc

    def test_throttle_skips_then_force_writes(self, tmp_path):
        writer = StatusWriter(tmp_path, min_interval=3600.0)
        assert writer.write(_doc(), force=True)
        assert not writer.write(_doc())  # throttled
        assert writer.write(_doc(done=True), force=True)
        assert read_status(tmp_path)["done"] is True

    def test_no_tmp_file_left_behind(self, tmp_path):
        StatusWriter(tmp_path).write(_doc(), force=True)
        assert [p.name for p in tmp_path.iterdir()] == [STATUS_NAME]

    def test_creates_missing_root(self, tmp_path):
        writer = StatusWriter(tmp_path / "a" / "b")
        writer.write(_doc(), force=True)
        assert read_status(tmp_path / "a" / "b")["plan"] == "abc123"


class TestReader:
    def test_missing_file_is_config_error(self, tmp_path):
        with pytest.raises(ConfigError, match="not a supervised run directory"):
            read_status(tmp_path)

    def test_wrong_format_rejected(self, tmp_path):
        (tmp_path / STATUS_NAME).write_text(json.dumps({"format": 99}))
        with pytest.raises(ConfigError, match="format-1"):
            read_status(tmp_path)

    def test_direct_file_path_accepted(self, tmp_path):
        StatusWriter(tmp_path).write(_doc(), force=True)
        assert read_status(tmp_path / STATUS_NAME)["plan"] == "abc123"


class TestRender:
    def test_running_recent(self, tmp_path):
        StatusWriter(tmp_path).write(_doc(), force=True)
        doc = read_status(tmp_path)
        text = render_status(doc, now=doc["updated_at"] + 1.0)
        assert "running" in text and "likely dead" not in text
        assert "vpr" in text and "2.5M" in text and "9.1M" in text
        assert "eta" in text

    def test_stale_renders_likely_dead(self, tmp_path):
        StatusWriter(tmp_path).write(_doc(), force=True)
        doc = read_status(tmp_path)
        text = render_status(doc, now=doc["updated_at"] + STALE_AFTER_S + 5)
        assert "likely dead" in text

    def test_recoveries_render_on_their_row(self, tmp_path):
        doc = _doc(state="done", done=True)
        slow = dict(doc["tasks"][0], index=1, workload="mcf", failures=[], slow=2)
        doc["tasks"][0].update(failures=["crash", "stall"], slow=0)
        doc["tasks"].append(slow)
        StatusWriter(tmp_path).write(doc, force=True)
        lines = render_status(read_status(tmp_path)).splitlines()
        vpr = next(line for line in lines if " vpr " in line)
        mcf = next(line for line in lines if " mcf " in line)
        assert vpr.endswith("(crash, stall)")
        assert mcf.endswith("(slow x2)")

    def test_finished_beats_staleness(self, tmp_path):
        StatusWriter(tmp_path).write(_doc(state="done", done=True), force=True)
        doc = read_status(tmp_path)
        text = render_status(doc, now=doc["updated_at"] + 10_000)
        assert "finished" in text and "likely dead" not in text
        assert "eta" not in text
