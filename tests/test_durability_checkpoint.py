"""Checkpoint format: round trips, integrity gates, graceful skips.

The checkpoint file is one JSON header line plus a pickle payload; every
gate (format version, spec/code fingerprint, payload length, sha256) must
reject with a typed :class:`CheckpointError` naming the gate — never load
damaged state.
"""

import json
import pickle

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.durability.checkpoint import (
    CHECKPOINT_FORMAT,
    CheckpointError,
    load_checkpoint,
    read_header,
    save_checkpoint,
)
from repro.engine.levels import prepare_workload
from repro.sequitur.sequitur import Sequitur
from repro.workloads.chainmix import build_chainmix

FINGERPRINT = "f" * 64


def _mid_run(small_params, tiny_machine, budget=2000):
    """An interpreter parked mid-run, plus its optimizer summary."""
    prepared = prepare_workload(build_chainmix(small_params), "dyn", tiny_machine)
    prepared.interp.start(prepared.args)
    assert prepared.interp.run_slice(budget) is None
    return prepared


class TestRoundTrip:
    def test_save_load_round_trip(self, small_params, tiny_machine, tmp_path):
        prepared = _mid_run(small_params, tiny_machine)
        path = tmp_path / "run.ckpt"
        written = save_checkpoint(
            path, prepared.interp, prepared.summary,
            workload="small", level="dyn", fingerprint=FINGERPRINT,
        )
        assert written == path and path.is_file()
        cp = load_checkpoint(path, fingerprint=FINGERPRINT)
        assert cp.workload == "small" and cp.level == "dyn"
        assert cp.fingerprint == FINGERPRINT
        assert cp.icount == prepared.interp.exec_state.icount
        # The restored interpreter finishes exactly like the original.
        original = prepared.interp.run_slice(1 << 40)
        restored = cp.interp.run_slice(1 << 40)
        assert restored.to_dict() == original.to_dict()

    def test_header_readable_without_payload(self, small_params, tiny_machine, tmp_path):
        prepared = _mid_run(small_params, tiny_machine)
        path = tmp_path / "run.ckpt"
        save_checkpoint(
            path, prepared.interp, prepared.summary,
            workload="small", level="dyn", fingerprint=FINGERPRINT,
        )
        header = read_header(path)
        assert header["format"] == CHECKPOINT_FORMAT
        assert header["workload"] == "small"
        assert header["payload_bytes"] > 0

    def test_sequitur_pickle_round_trip(self):
        # The grammar's circular linked lists forced an iterative
        # __getstate__; the round trip must preserve digram/rule structure.
        seq = Sequitur()
        seq.extend([0, 1, 0, 0, 1, 2, 0, 1, 2, 0, 1, 2, 0, 1, 2])
        clone = pickle.loads(pickle.dumps(seq, pickle.HIGHEST_PROTOCOL))
        names = {i: ch for i, ch in enumerate("abc")}
        assert clone.to_text(names) == seq.to_text(names)
        clone.extend([0, 1, 2])
        seq.extend([0, 1, 2])
        assert clone.to_text(names) == seq.to_text(names)


class TestRejection:
    @pytest.fixture
    def saved(self, small_params, tiny_machine, tmp_path):
        prepared = _mid_run(small_params, tiny_machine)
        path = tmp_path / "run.ckpt"
        save_checkpoint(
            path, prepared.interp, prepared.summary,
            workload="small", level="dyn", fingerprint=FINGERPRINT,
        )
        return path

    def _expect_rejection(self, path, reason, fingerprint=FINGERPRINT):
        with pytest.raises(CheckpointError) as exc:
            load_checkpoint(path, fingerprint=fingerprint)
        assert exc.value.reason == reason

    def test_version_bump_rejected(self, saved):
        header_line, _, payload = saved.read_bytes().partition(b"\n")
        header = json.loads(header_line)
        header["format"] = CHECKPOINT_FORMAT + 1
        saved.write_bytes(json.dumps(header).encode() + b"\n" + payload)
        self._expect_rejection(saved, "format")

    def test_foreign_fingerprint_rejected(self, saved):
        self._expect_rejection(saved, "fingerprint", fingerprint="0" * 64)

    def test_truncation_rejected(self, saved):
        data = saved.read_bytes()
        saved.write_bytes(data[: len(data) // 2])
        self._expect_rejection(saved, "truncated")

    def test_flipped_payload_byte_rejected(self, saved):
        data = bytearray(saved.read_bytes())
        data[-10] ^= 0x01
        saved.write_bytes(bytes(data))
        self._expect_rejection(saved, "digest")

    def test_garbage_header_rejected(self, saved):
        saved.write_bytes(b"not json at all\n" + b"x" * 32)
        self._expect_rejection(saved, "unreadable")

    @settings(
        max_examples=20,
        deadline=None,
        suppress_health_check=[HealthCheck.function_scoped_fixture],
    )
    @given(offset_frac=st.floats(min_value=0.0, max_value=1.0, exclude_max=True))
    def test_any_flipped_payload_byte_rejected(
        self, small_params, tiny_machine, tmp_path_factory, offset_frac
    ):
        """Property: flip ANY single payload byte — the digest gate must
        reject it with a typed error, wherever the flip lands."""
        prepared = _mid_run(small_params, tiny_machine)
        path = tmp_path_factory.mktemp("ckpt") / "run.ckpt"
        save_checkpoint(
            path, prepared.interp, prepared.summary,
            workload="small", level="dyn", fingerprint=FINGERPRINT,
        )
        data = bytearray(path.read_bytes())
        payload_start = data.index(b"\n") + 1
        offset = payload_start + int(offset_frac * (len(data) - payload_start))
        data[min(offset, len(data) - 1)] ^= 0x01
        path.write_bytes(bytes(data))
        with pytest.raises(CheckpointError) as exc:
            load_checkpoint(path, fingerprint=FINGERPRINT)
        assert exc.value.reason == "digest"


class TestSkip:
    def test_unpicklable_state_skips_not_raises(self, small_params, tiny_machine, tmp_path):
        prepared = _mid_run(small_params, tiny_machine)
        path = tmp_path / "run.ckpt"
        written = save_checkpoint(
            path, prepared.interp, lambda: None,  # lambdas cannot pickle
            workload="small", level="dyn", fingerprint=FINGERPRINT,
        )
        assert written is None
        assert not path.exists()
        assert not list(tmp_path.iterdir())  # no temp file either
