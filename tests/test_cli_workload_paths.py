"""CLI smoke tests for the workload-driven artifacts at tiny scale."""

import pytest

from repro.bench import figures
from repro.bench.cli import main as cli_main
from repro.bench.figures import ResultCache
from repro.engine.cache import ResultStore


@pytest.mark.parametrize("artifact", ["figure11", "figure12", "table2"])
def test_workload_artifacts_run_at_small_scale(artifact, capsys):
    code = cli_main([artifact, "--workloads", "vortex", "--scale", "0.1"])
    assert code == 0
    out = capsys.readouterr().out
    assert "vortex" in out


def test_scale_flag_parsed(capsys):
    """``--scale`` sets the command's pass counts (``figure4`` simulates
    nothing, so it refuses the flag)."""
    with pytest.raises(SystemExit) as excinfo:
        cli_main(["figure4", "--scale", "0.5"])
    assert excinfo.value.code == 2
    assert cli_main(["ablation-watchdog", "--scale", "0.02"]) == 0
    rows = figures.ablation_watchdog(ResultCache(passes_scale=0.02, store=ResultStore()))
    assert capsys.readouterr().out == figures.WATCHDOG.render(rows) + "\n"
