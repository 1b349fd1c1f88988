"""CLI durability flags: supervised runs, resume, cache gc --dry-run.

The contract surfaced to users: durability flags never change stdout (tables
stay byte-identical), a supervised run on a clean slate is just a fresh run
that leaves no run state behind, and ``cache gc --dry-run`` reports without
deleting.
"""

import os
from pathlib import Path

import pytest

from repro.bench.cli import ARTIFACTS, OPTIONS
from repro.bench.cli import main as cli_main
from repro.obs.status import read_status

TINY = ["--workloads", "vortex", "--scale", "0.05"]

#: Flags that engage the supervised executor.
DURABILITY = [["--chaos-seed", "1"], ["--task-timeout", "30"], ["--checkpoint-every", "1000"]]
#: ``explain``'s modes: plain, ``--against`` and ``--from`` (``{tmp}`` is the
#: test's temporary directory).  Only ``--against`` runs a plan, so the
#: others also refuse the durability flags.
EXPLAIN_MODES = {"": [], "-against": ["--against", "orig"], "-from": ["--from", "{tmp}/log"]}


def _refusals():
    """Every (command, arguments, refused name) an artifact refuses: each
    option it does not declare, a stray positional, and explain's durability
    flags outside ``--against``.  Ids read ``explain-against--metrics``."""
    for name, artifact in ARTIFACTS.items():
        positionals = ["x" for flag in artifact.flags if not flag.startswith("-")]
        for mode, mode_args in (EXPLAIN_MODES if name == "explain" else {"": []}).items():
            refused = [
                [flag] if OPTIONS[flag].get("action") == "store_true" else [flag, "{tmp}/x"]
                for flag in OPTIONS if flag.startswith("-") and flag not in artifact.flags
            ]
            if name == "explain" and mode != "-against":
                refused += DURABILITY
            for args in refused:
                yield pytest.param([name, *mode_args], args, args[0], id=f"{name}{mode}{args[0]}")
            yield pytest.param(
                [name, *mode_args], [*positionals, "stray"], "stray", id=f"{name}{mode}-stray"
            )


def _cache_dir():
    return Path(os.environ["REPRO_CACHE_DIR"])


class TestSupervisedFigures:
    def test_chaos_run_output_matches_plain(self, capsys):
        assert cli_main(["figures", *TINY]) == 0
        plain = capsys.readouterr().out
        # Fresh store so the chaos run actually executes (REPRO_CACHE_DIR is
        # per-test; point the second run at a sibling directory).
        chaos_cache = str(_cache_dir() / "chaos")
        assert cli_main([
            "figures", *TINY, "--cache-dir", chaos_cache,
            "--jobs", "2", "--chaos-seed", "1", "--task-timeout", "4",
            "--checkpoint-every", "250000",
        ]) == 0
        assert capsys.readouterr().out == plain

    def test_resume_without_prior_run_is_fresh(self, capsys):
        assert cli_main(["figures", *TINY]) == 0
        plain = capsys.readouterr().out
        # Without a result cache the supervisor keeps finished runs in a
        # private store under the run directory until the plan completes.
        assert cli_main([
            "figures", *TINY, "--no-cache", "--checkpoint-every", "50000",
        ]) == 0
        assert capsys.readouterr().out == plain
        run_dir = _cache_dir() / "run"
        assert (run_dir / "status.json").is_file()
        assert list(run_dir.rglob("*.ckpt")) == []
        assert list((run_dir / "results").rglob("*.json")) == []

    def test_checkpoint_every_engages_supervisor(self, capsys):
        assert cli_main([
            "figures", *TINY, "--checkpoint-every", "50000",
        ]) == 0
        assert capsys.readouterr().out


class TestFlagValidation:
    @pytest.mark.parametrize(
        "flags",
        [
            ["--task-timeout", "0"],
            ["--task-timeout", "-1"],
            ["--checkpoint-every", "0"],
        ],
    )
    def test_bad_durability_flags_rejected(self, flags, capsys):
        with pytest.raises(SystemExit) as excinfo:
            cli_main(["figures", *TINY, *flags])
        assert excinfo.value.code == 2


class TestTelemetryRefusesDurability:
    """Recorded runs execute live and in-process, never through the
    supervised executor, so a durability flag would be silently ignored."""

    @pytest.mark.parametrize(
        "flags",
        [
            ["--chaos-seed", "1"],
            ["--task-timeout", "30"],
            ["--checkpoint-every", "250000"],
        ],
    )
    def test_rejected_before_any_run(self, flags, tmp_path, capsys):
        log = tmp_path / "log"
        with pytest.raises(SystemExit) as excinfo:
            cli_main(["figures", *TINY, "--telemetry", str(log), *flags])
        assert excinfo.value.code == 2
        err = capsys.readouterr().err
        assert flags[0] in err and "--telemetry" in err
        assert not log.exists()
        assert not (_cache_dir() / "run").exists()

    def test_metrics_alone_is_refused_too(self, tmp_path, capsys):
        metrics = tmp_path / "metrics.json"
        with pytest.raises(SystemExit) as excinfo:
            cli_main(["figures", *TINY, "--metrics", str(metrics), "--task-timeout", "30"])
        assert excinfo.value.code == 2
        assert "--metrics" in capsys.readouterr().err
        assert not metrics.exists()


class TestIgnoredFlagsRefused:
    """A flag the artifact would not honour is a usage error, raised before
    any run and before any file or directory exists."""

    @pytest.mark.parametrize("command,args,refused", list(_refusals()))
    def test_refused_before_any_run(self, command, args, refused, tmp_path, capsys):
        argv = [arg.replace("{tmp}", str(tmp_path)) for arg in [*command, *args]]
        with pytest.raises(SystemExit) as excinfo:
            cli_main(argv)
        assert excinfo.value.code == 2
        error = capsys.readouterr().err.splitlines()[-1]
        assert f"{command[0]} does not take" in error and refused in error
        assert list(tmp_path.iterdir()) == []

    def test_explain_against_runs_supervised(self, capsys):
        assert cli_main(["explain", *TINY, "--against", "orig", "--task-timeout", "30"]) == 0
        assert "vortex: orig" in capsys.readouterr().out
        rows = read_status(_cache_dir() / "run")["tasks"]
        assert [(row["level"], row["state"]) for row in rows] == [("orig", "done"), ("dyn", "done")]


class TestOnePlanPerCommand:
    """A command resolves all of its jobs as one plan, each fingerprint once,
    so a supervised command's ``status.json`` lists every job it ran."""

    @pytest.mark.parametrize(
        "command,tasks",
        [
            (["all", "--workloads", "vortex"], 14),
            (["ablation-headlen", "--workloads", "vortex,mcf"], 8),
            (["explain", "--workloads", "vortex,mcf", "--against", "orig"], 4),
        ],
        ids=["all", "ablation-headlen", "explain-against"],
    )
    def test_status_lists_every_job(self, command, tasks, capsys):
        assert cli_main([*command, "--scale", "0.05", "--task-timeout", "30"]) == 0
        rows = read_status(_cache_dir() / "run")["tasks"]
        assert len(rows) == tasks
        assert all(row["state"] == "done" for row in rows)


class TestRunRoot:
    @pytest.mark.parametrize("no_cache", [False, True], ids=["store", "no-cache"])
    def test_run_dir_follows_cache_dir(self, no_cache, tmp_path, capsys):
        root = tmp_path / "elsewhere"
        flags = ["--cache-dir", str(root), *(["--no-cache"] if no_cache else [])]
        assert cli_main(["figure11", *TINY, *flags, "--task-timeout", "30"]) == 0
        assert not (_cache_dir() / "run").exists()
        capsys.readouterr()
        assert cli_main(["status", "--cache-dir", str(root)]) == 0
        assert "vortex" in capsys.readouterr().out


class TestCacheDryRun:
    def test_dry_run_reports_without_deleting(self, capsys):
        assert cli_main(["figure11", *TINY]) == 0
        capsys.readouterr()
        before = sorted(_cache_dir().glob("objects/*/*.json"))
        assert before
        assert cli_main(["cache", "gc", "--max-size-mb", "0", "--dry-run"]) == 0
        out = capsys.readouterr().out
        assert "would evict" in out and "would remain" in out
        assert sorted(_cache_dir().glob("objects/*/*.json")) == before
        # The real gc then deletes what the dry run promised.
        assert cli_main(["cache", "gc", "--max-size-mb", "0"]) == 0
        assert "evicted" in capsys.readouterr().out
        assert sorted(_cache_dir().glob("objects/*/*.json")) == []

    def test_stats_reports_corrupt_entries(self, capsys):
        assert cli_main(["figure11", *TINY]) == 0
        capsys.readouterr()
        victim = sorted(_cache_dir().glob("objects/*/*.json"))[0]
        victim.write_text(victim.read_text()[:40])
        assert cli_main(["cache"]) == 0
        out = capsys.readouterr().out
        assert "corrupt 1" in out
