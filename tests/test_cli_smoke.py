"""Smoke tests: every ``repro-bench`` subcommand starts, helps and exits 0.

Heavier artifacts run with one workload at tiny scale; the point is that the
wiring (argument parsing, dispatch, output plumbing) works for every
declared artifact, not that the numbers are interesting.
"""

from __future__ import annotations

import pytest

import repro.oracle.golden as golden_mod
from repro.bench.cli import main as cli_main

ARTIFACTS = [
    "figure4",
    "table1",
    "figure8",
    "figure11",
    "figure12",
    "table2",
    "ablation-headlen",
    "ablation-hwpref",
    "ablation-watchdog",
    "tables",
    "figures",
    "trace",
    "explain",
    "verify",
    "cache",
    "all",
]

#: minimal invocation per artifact (beyond the artifact name itself)
_EXTRA_ARGS = {
    "figure11": ["--workloads", "vortex", "--scale", "0.05"],
    "figure12": ["--workloads", "vortex", "--scale", "0.05"],
    "table2": ["--workloads", "vortex", "--scale", "0.05"],
    "ablation-headlen": ["--workloads", "vortex", "--scale", "0.05"],
    "ablation-hwpref": ["--workloads", "vortex", "--scale", "0.05"],
    "ablation-watchdog": ["--scale", "0.05"],
    "figures": ["--workloads", "vortex", "--scale", "0.05"],
    "trace": ["--workloads", "vortex", "--scale", "0.05"],
    "explain": ["--workloads", "vortex", "--scale", "0.05"],
    "verify": ["--runs", "1", "--skip-golden"],
    "all": ["--workloads", "vortex", "--scale", "0.05"],
}


def test_parser_help_exits_zero(capsys):
    with pytest.raises(SystemExit) as excinfo:
        cli_main(["--help"])
    assert excinfo.value.code == 0
    out = capsys.readouterr().out
    for artifact in ARTIFACTS:
        assert artifact in out


def test_top_level_help_keeps_the_docstring_layout(capsys):
    # The module docstring is the top-level description: its paragraphs
    # stay apart and no flag is hyphen-wrapped.
    with pytest.raises(SystemExit):
        cli_main(["--help"])
    out = capsys.readouterr().out
    assert "\n\nVerification: " in out
    assert "``--fault-seed N``" in out


def test_help_names_the_default_checkpoint_cadence(capsys):
    from repro.durability.runner import DEFAULT_CHECKPOINT_EVERY

    with pytest.raises(SystemExit):
        cli_main(["figures", "--help"])
    out = " ".join(capsys.readouterr().out.split())
    assert f"(default {DEFAULT_CHECKPOINT_EVERY} once engaged)" in out


@pytest.mark.parametrize("artifact", ARTIFACTS)
def test_minimal_invocation_exits_zero(artifact, tmp_path, capsys, monkeypatch):
    monkeypatch.chdir(tmp_path)  # trace writes its default output file here
    if artifact == "verify":
        # verify's one-workload scale: its fastpath and obs sections iterate
        # the golden grid, which tests/test_cli_verify.py runs in full.
        monkeypatch.setattr(golden_mod, "GOLDEN_RUNS", golden_mod.GOLDEN_RUNS[:1])
    args = [artifact] + _EXTRA_ARGS.get(artifact, [])
    assert cli_main(args) == 0
    assert capsys.readouterr().out


def test_unknown_artifact_rejected(capsys):
    with pytest.raises(SystemExit) as excinfo:
        cli_main(["figure99"])
    assert excinfo.value.code == 2


def test_trace_unknown_level_rejected(capsys):
    with pytest.raises(SystemExit) as excinfo:
        cli_main(["trace", "--level", "warp9"])
    assert excinfo.value.code == 2
    assert "unknown level" in capsys.readouterr().err


def test_explain_stream_needs_single_workload(capsys):
    with pytest.raises(SystemExit) as excinfo:
        cli_main(["explain", "--stream", "s1", "--scale", "0.05"])
    assert excinfo.value.code == 2
    assert "single workload" in capsys.readouterr().err
