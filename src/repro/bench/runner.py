"""Compatibility facade over the experiment engine.

The run orchestration that used to live here — the measurement-level ladder,
its if/elif dispatch and the :class:`RunResult` container — moved into
:mod:`repro.engine` (a declarative :class:`~repro.engine.levels.LevelSpec`
registry, a serializable result, a content-addressed cache and a parallel
executor).  This module keeps the historical entry points with unchanged
signatures:

- :data:`LEVELS` — the registered measurement levels, ladder order;
- :func:`configure_level` — level -> optimizer-config derivation;
- :class:`RunResult` — now :class:`repro.engine.result.RunResult`;
- :func:`run_workload` / :func:`run_level` — one uncached, in-process
  execution (exactly the old behaviour).

Cache-aware and parallel execution live in :func:`repro.engine.run_spec`
and :func:`repro.engine.execute_plan`; new levels register through
:func:`repro.engine.register_level`.
"""

from __future__ import annotations

from typing import Optional

from repro.core.config import OptimizerConfig
from repro.engine.levels import LEVELS, configure_level, execute_workload
from repro.engine.result import RunResult
from repro.machine.config import MachineConfig, PAPER_MACHINE
from repro.telemetry.session import TelemetrySession
from repro.workloads import presets
from repro.workloads.base import BuiltWorkload

__all__ = ["LEVELS", "RunResult", "configure_level", "run_level", "run_workload"]


def run_workload(
    workload: BuiltWorkload,
    level: str,
    machine: MachineConfig = PAPER_MACHINE,
    opt: Optional[OptimizerConfig] = None,
    telemetry: Optional[TelemetrySession] = None,
) -> RunResult:
    """Execute an already-built workload at one measurement level.

    ``telemetry`` attaches an existing session (event sinks and all); without
    one, a metrics-only session is created so the returned result still
    carries its exact metrics snapshot.  Telemetry never alters simulated
    cycle counts.
    """
    return execute_workload(workload, level, machine, opt, telemetry)


def run_level(
    name: str,
    level: str,
    machine: MachineConfig = PAPER_MACHINE,
    opt: Optional[OptimizerConfig] = None,
    passes: Optional[int] = None,
    telemetry: Optional[TelemetrySession] = None,
) -> RunResult:
    """Build the named preset workload and execute it at ``level``."""
    return run_workload(presets.build(name, passes=passes), level, machine, opt, telemetry)
