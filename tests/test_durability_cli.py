"""CLI durability flags: supervised runs, resume, cache gc --dry-run.

The contract surfaced to users: durability flags never change stdout (tables
stay byte-identical), ``--resume`` on a clean slate is just a fresh run, and
``cache gc --dry-run`` reports without deleting.
"""

import os
from pathlib import Path

import pytest

from repro.bench.cli import main as cli_main

TINY = ["--workloads", "vortex", "--scale", "0.05"]


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
        resumed_cache = str(_cache_dir() / "resumed")
        assert cli_main([
            "figures", *TINY, "--cache-dir", resumed_cache, "--resume",
        ]) == 0
        assert capsys.readouterr().out == plain
        # A completed supervised run retires its journal.
        journals = list((Path(resumed_cache) / "journal").glob("*.jsonl"))
        assert journals == []

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
