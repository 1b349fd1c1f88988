"""The ``repro-bench verify`` subcommand and the verify driver's report."""

import pytest

import repro.oracle.golden as golden_mod
from repro.bench.cli import main
from repro.oracle.golden import GoldenRun
from repro.oracle.verify import run_verify


@pytest.fixture(scope="module")
def quick_report():
    """One shared verify run over the full golden grid.

    The report-shape assertions share it (runs=2 keeps the randomized
    sections fast; golden is covered by test_oracle_golden).  It is the one
    verify run in this module whose ``fastpath`` and ``obs`` sections replay
    the whole grid.  The CI ``verify`` job replays it too, and the
    ``fastpath`` job's equivalence suites diff both kernels over it.
    """
    return run_verify(seed=0, runs=2, include_golden=False)


@pytest.fixture
def one_cell_corpus(monkeypatch):
    """Restrict the golden grid to one tiny cell.

    The golden, fastpath and obs sections all iterate the grid, so a test
    whose verdict does not depend on the full grid stays fast; the full
    grid runs in ``quick_report``.
    """
    monkeypatch.setattr(
        golden_mod,
        "GOLDEN_RUNS",
        (GoldenRun(workload="vortex", level="orig", passes=1),),
    )


class TestRunVerify:
    def test_all_sections_pass(self, quick_report):
        assert quick_report.ok
        assert [s.name for s in quick_report.sections] == [
            "hierarchy", "sequitur", "streams", "invariants", "tenancy",
            "fastpath", "obs",
        ]
        assert all(s.cases > 0 for s in quick_report.sections)

    def test_report_format(self, quick_report):
        text = quick_report.format()
        assert "VERIFY PASSED" in text
        assert "seed=0" in text
        for name in (
            "hierarchy", "sequitur", "streams", "invariants",
            "tenancy", "fastpath", "obs",
        ):
            assert name in text

    def test_verdict_line_echoes_seed_and_runs(self, quick_report):
        # The last line alone must be enough to reproduce a failure report:
        # it carries the seed and the per-section run count.
        last = quick_report.format().splitlines()[-1]
        assert last == "VERIFY PASSED (seed=0, runs=2)"

    def test_seeds_are_reproducible(self, one_cell_corpus):
        # The seed reaches only the randomized sections, which do not read
        # the golden grid.
        a = run_verify(seed=7, runs=1, include_golden=False)
        b = run_verify(seed=7, runs=1, include_golden=False)
        assert a.format() == b.format()

    def test_golden_section_failure_fails_report(self, tmp_path, one_cell_corpus):
        # Empty golden dir -> every corpus entry is "missing" -> not ok.
        report = run_verify(seed=0, runs=1, golden_dir=tmp_path, include_golden=True)
        assert not report.ok
        golden = next(s for s in report.sections if s.name == "golden")
        assert golden.failures
        assert "VERIFY FAILED" in report.format()


class TestCliVerify:
    def test_exit_zero_on_pass(self, capsys, one_cell_corpus):
        code = main(["verify", "--seed", "0", "--runs", "1", "--skip-golden"])
        out = capsys.readouterr().out
        assert code == 0
        assert "VERIFY PASSED" in out

    def test_cli_summary_echoes_seed(self, capsys, one_cell_corpus):
        code = main(["verify", "--seed", "11", "--runs", "1", "--skip-golden"])
        out = capsys.readouterr().out
        assert code == 0
        assert "VERIFY PASSED (seed=11, runs=1)" in out

    def test_exit_one_on_golden_failure(self, tmp_path, capsys, one_cell_corpus):
        code = main(
            ["verify", "--seed", "0", "--runs", "1", "--golden-dir", str(tmp_path)]
        )
        out = capsys.readouterr().out
        assert code == 1
        assert "VERIFY FAILED" in out

    def test_update_golden_records_corpus(self, tmp_path, capsys, one_cell_corpus):
        code = main(["verify", "--update-golden", "--golden-dir", str(tmp_path)])
        out = capsys.readouterr().out
        assert code == 0
        assert "golden corpus updated" in out
        assert (tmp_path / "vortex-orig.json").is_file()
        # And the freshly recorded corpus verifies clean.
        code = main(["verify", "--seed", "0", "--runs", "1", "--golden-dir", str(tmp_path)])
        assert code == 0
