"""Declarative registry of the paper's measurement levels.

Each :class:`LevelSpec` states what a level *is* — whether the binary is
statically instrumented, how the optimizer configuration is derived, and
which component gets attached to the interpreter — instead of encoding it in
an if/elif ladder.  :func:`execute_workload` is the single execution path
every level shares; new levels (and alternative prefetcher backends) plug in
through :func:`register_level` without touching it.

The built-in ladder, in the order both evaluation figures climb:

==========  =================================================================
``orig``    unmodified binary (the normalization baseline)
``base``    bursty-tracing checks only, (virtually) no tracing — Figure 11
            "Base" (huge ``nCheck0``, ``nInstr0 = 1``, no listener)
``prof``    temporal data-reference profiling at the configured sampling
            rate, no analysis — Figure 11 "Prof"
``hds``     profiling + online hot-data-stream analysis — Figure 11 "Hds"
``nopref``  full pipeline incl. DFSM prefix matching, but no prefetches —
            Figure 12 "No-pref"
``seq``     prefetch sequentially-following blocks — Figure 12 "Seq-pref"
``dyn``     prefetch the hot data stream tails — Figure 12 "Dyn-pref"
``static``  one ahead-of-time optimization from a profiling pre-run
``stride``  hardware stride prefetcher on the unmodified binary
``markov``  hardware Markov prefetcher on the unmodified binary
==========  =================================================================
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Callable, Optional

from repro.core.config import OptimizerConfig
from repro.core.hwpref import MarkovPrefetcher, StridePrefetcher
from repro.core.optimizer import DynamicPrefetcher
from repro.core.static_pref import StaticPrefetcher
from repro.core.stats import OptimizerSummary
from repro.engine.result import RunResult
from repro.errors import ConfigError
from repro.interp.interpreter import Interpreter
from repro.machine.config import MachineConfig, PAPER_MACHINE
from repro.telemetry.session import TelemetrySession
from repro.vulcan.static_edit import instrument_program
from repro.workloads.base import BuiltWorkload


@dataclass
class LevelWiring:
    """Everything a level's ``attach`` hook may touch before the run starts."""

    interp: Interpreter
    machine: MachineConfig
    #: the level-derived optimizer configuration (``configure`` already
    #: applied); levels without a ``configure`` hook see the caller's config
    opt: OptimizerConfig

    @property
    def program(self):
        """The (possibly instrumented) program the interpreter will execute."""
        return self.interp.program


#: ``attach`` wires a component to the interpreter and returns the optimizer
#: summary the run should report (None for unoptimized levels).
AttachHook = Callable[[LevelWiring], Optional[OptimizerSummary]]


@dataclass(frozen=True)
class LevelSpec:
    """One measurement level, declaratively.

    Attributes:
        name: the level string used across the CLI, specs and golden corpus.
        description: one-line description (``repro-bench`` help output).
        instrument: statically instrument the binary (vulcan) before running.
        uses_opt: whether the run's outcome depends on the caller's
            :class:`OptimizerConfig`.  Levels that never read it (``orig``,
            the hardware baselines, ``base``) are cache-equivalent across
            optimizer configs, and the result cache normalizes their
            fingerprints accordingly.
        configure: derives the level's optimizer configuration from the
            caller's; None for levels without an optimizer config
            (:func:`configure_level` raises for those, as it always has).
        attach: wires the level's component (optimizer, hardware prefetcher,
            counter setup) to the interpreter; None runs the bare binary.
    """

    name: str
    description: str = ""
    instrument: bool = False
    uses_opt: bool = True
    configure: Optional[Callable[[OptimizerConfig], OptimizerConfig]] = None
    attach: Optional[AttachHook] = None


_REGISTRY: dict[str, LevelSpec] = {}

#: The measurement levels in registration (= ladder) order; kept in sync with
#: the registry by :func:`register_level`.
LEVELS: tuple[str, ...] = ()


def _refresh_levels() -> None:
    global LEVELS
    LEVELS = tuple(_REGISTRY)


def register_level(spec: LevelSpec, replace_existing: bool = False) -> LevelSpec:
    """Add a level to the registry (``replace_existing`` guards typos)."""
    if spec.name in _REGISTRY and not replace_existing:
        raise ConfigError(f"level {spec.name!r} is already registered")
    _REGISTRY[spec.name] = spec
    _refresh_levels()
    return spec


def get_level(name: str) -> LevelSpec:
    """Look up a level; raises :class:`ConfigError` for unknown names."""
    spec = _REGISTRY.get(name)
    if spec is None:
        raise ConfigError(f"unknown level {name!r}; known: {level_names()}")
    return spec


def level_names() -> tuple[str, ...]:
    """Registered level names in registration (= ladder) order."""
    return tuple(_REGISTRY)


def configure_level(level: str, opt: OptimizerConfig) -> OptimizerConfig:
    """Derive the optimizer configuration implementing ``level``."""
    spec = get_level(level)
    if spec.configure is None:
        raise ConfigError(f"level {level!r} does not use an optimizer config")
    return spec.configure(opt)


# ----------------------------------------------------------- built-in levels


def _attach_base(wiring: LevelWiring) -> None:
    # Checks execute, instrumented code (virtually) never does.
    wiring.interp.set_counters(1 << 40, 1)
    return None


def _attach_stride(wiring: LevelWiring) -> None:
    wiring.interp.hw_prefetcher = StridePrefetcher()
    return None


def _attach_markov(wiring: LevelWiring) -> None:
    wiring.interp.hw_prefetcher = MarkovPrefetcher()
    return None


def _attach_dynamic(wiring: LevelWiring) -> OptimizerSummary:
    optimizer = DynamicPrefetcher(wiring.program, wiring.interp, wiring.machine, wiring.opt)
    return optimizer.summary


def _attach_static(wiring: LevelWiring) -> OptimizerSummary:
    optimizer = StaticPrefetcher(wiring.program, wiring.interp, wiring.machine, wiring.opt)
    return optimizer.summary


register_level(LevelSpec(
    name="orig",
    description="unmodified binary (normalization baseline)",
    uses_opt=False,
))
register_level(LevelSpec(
    name="base",
    description="bursty-tracing checks only, no tracing (Figure 11 Base)",
    instrument=True,
    uses_opt=False,
    attach=_attach_base,
))
register_level(LevelSpec(
    name="prof",
    description="temporal profiling, no analysis (Figure 11 Prof)",
    instrument=True,
    configure=lambda opt: replace(opt, analyze=False, inject=False),
    attach=_attach_dynamic,
))
register_level(LevelSpec(
    name="hds",
    description="profiling + hot-data-stream analysis (Figure 11 Hds)",
    instrument=True,
    configure=lambda opt: replace(opt, analyze=True, inject=False),
    attach=_attach_dynamic,
))
register_level(LevelSpec(
    name="nopref",
    description="full pipeline, prefetches suppressed (Figure 12 No-pref)",
    instrument=True,
    configure=lambda opt: replace(opt, analyze=True, inject=True, mode="nopref"),
    attach=_attach_dynamic,
))
register_level(LevelSpec(
    name="seq",
    description="prefetch sequentially-following blocks (Figure 12 Seq-pref)",
    instrument=True,
    configure=lambda opt: replace(opt, analyze=True, inject=True, mode="seq"),
    attach=_attach_dynamic,
))
register_level(LevelSpec(
    name="dyn",
    description="prefetch hot data stream tails (Figure 12 Dyn-pref)",
    instrument=True,
    configure=lambda opt: replace(opt, analyze=True, inject=True, mode="dyn"),
    attach=_attach_dynamic,
))
register_level(LevelSpec(
    name="static",
    description="one ahead-of-time optimization from a profiling pre-run",
    instrument=True,
    configure=lambda opt: replace(opt, analyze=True, inject=True, mode="dyn"),
    attach=_attach_static,
))
register_level(LevelSpec(
    name="stride",
    description="hardware stride prefetcher baseline",
    uses_opt=False,
    attach=_attach_stride,
))
register_level(LevelSpec(
    name="markov",
    description="hardware Markov prefetcher baseline",
    uses_opt=False,
    attach=_attach_markov,
))

# -------------------------------------------------------------------- engine


@dataclass
class PreparedRun:
    """A workload wired up at one level, ready to execute.

    The setup half of :func:`execute_workload`, factored out so the durable
    runner (:mod:`repro.durability.runner`) can drive the same wiring through
    the incremental ``start()/run_slice()`` API — and swap in a
    checkpoint-restored interpreter — while :func:`finish_workload` stays the
    single finalization path.
    """

    workload_name: str
    level: str
    args: tuple[int, ...]
    interp: Interpreter
    summary: Optional[OptimizerSummary]
    session: TelemetrySession


def prepare_workload(
    workload: BuiltWorkload,
    level: str,
    machine: MachineConfig = PAPER_MACHINE,
    opt: Optional[OptimizerConfig] = None,
    telemetry: Optional[TelemetrySession] = None,
) -> PreparedRun:
    """Resolve the level, instrument, wire telemetry and attach components.

    Everything :func:`execute_workload` does *before* the dispatch loop runs;
    the returned :class:`PreparedRun` holds the wired interpreter and the
    session that must see the finished stats.
    """
    spec = get_level(level)
    opt = opt if opt is not None else OptimizerConfig()
    session = telemetry if telemetry is not None else TelemetrySession()
    # Open the run (and its tracing span) before any component is built so
    # the optimizer's epoch spans nest under the run span.
    if not session.context:
        session.begin_run(workload.name, level)
    program = workload.program
    if spec.instrument:
        program, _report = instrument_program(program)
    interp = Interpreter(program, workload.memory, machine)
    session.wire(interp)
    summary: Optional[OptimizerSummary] = None
    if spec.attach is not None:
        derived = spec.configure(opt) if spec.configure is not None else opt
        summary = spec.attach(LevelWiring(interp=interp, machine=machine, opt=derived))
    return PreparedRun(
        workload_name=workload.name,
        level=level,
        args=workload.args,
        interp=interp,
        summary=summary,
        session=session,
    )


def finish_workload(prepared: PreparedRun, stats) -> RunResult:
    """Finalize a finished execution: hierarchy, session, result assembly."""
    interp = prepared.interp
    interp.hierarchy.finalize(now=stats.cycles)
    metrics = prepared.session.finalize_run(stats, interp.hierarchy, prepared.summary)
    # Streaming sinks record a per-run summary (cycle attribution, per-proc
    # rows) in their manifest, making chunk directories self-describing for
    # `repro-bench explain --from`.  Duck-typed so telemetry stays decoupled.
    if prepared.session.bus.enabled:
        notes = [
            note
            for note in (
                getattr(sink, "note_run_summary", None)
                for sink in prepared.session.bus._sinks
            )
            if note is not None
        ]
        if notes:
            from repro.obs.stream import run_summary_doc

            doc = run_summary_doc(
                prepared.workload_name,
                prepared.level,
                stats,
                interp.config,
                interp.proc_attr,
            )
            for note in notes:
                note(doc)
    return RunResult(
        workload=prepared.workload_name,
        level=prepared.level,
        stats=stats,
        hierarchy=interp.hierarchy,
        summary=prepared.summary,
        metrics=metrics,
    )


def execute_workload(
    workload: BuiltWorkload,
    level: str,
    machine: MachineConfig = PAPER_MACHINE,
    opt: Optional[OptimizerConfig] = None,
    telemetry: Optional[TelemetrySession] = None,
    fast: bool = True,
) -> RunResult:
    """Execute an already-built workload at one measurement level.

    The single execution path shared by every registered level: resolve the
    :class:`LevelSpec`, apply its instrumentation, wire telemetry, attach its
    component, run, finalize.  ``telemetry`` attaches an existing session
    (event sinks and all); without one, a metrics-only session is created so
    the returned result still carries its exact metrics snapshot.  Telemetry
    never alters simulated cycle counts.

    ``fast=False`` runs the reference dispatch loop instead of the compiled
    kernel (:mod:`repro.fastpath`).  The kernel is bit-identical to the
    reference loop, so results — and therefore result-cache fingerprints —
    do not depend on it.
    """
    prepared = prepare_workload(workload, level, machine, opt, telemetry)
    stats = prepared.interp.run(prepared.args, fast=fast)
    return finish_workload(prepared, stats)
