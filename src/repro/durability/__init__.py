"""Durability: checkpoints, crash-safe supervised execution, chaos testing.

Long multi-configuration studies must survive crashed workers, SIGKILLed
processes and torn writes without redoing finished work — and without *ever*
trading correctness for availability.  This package supplies the pieces
(see DESIGN.md §5g):

:mod:`repro.durability.checkpoint`
    Format-versioned, sha256-integrity-tagged snapshots of the full
    architectural run state (interpreter frames + memory, cache sets and
    stats lanes, profiler/Sequitur/optimizer/watchdog state, fault-injector
    PRNG streams), taken at instruction-count boundaries through the
    ``Interpreter.start()/run_slice()`` API.  Checkpoint-resume is
    bit-identical to straight-through execution — pinned by the
    ``check_checkpoint_resume_identity`` oracle invariant.

:mod:`repro.durability.supervisor`
    :func:`~repro.durability.supervisor.execute_plan_supervised` wraps the
    engine's plan executor with per-task timeouts, worker heartbeats,
    bounded retry with exponential backoff and a final in-process fallback,
    so a plan always completes with correct results.  Every finished task
    is stored in the result store before the plan moves on, so running an
    interrupted plan again replays finished work and resumes the rest from
    its checkpoints.

:mod:`repro.durability.chaos`
    A seeded, deterministic :class:`~repro.durability.chaos.ChaosPlan` (in
    the spirit of :mod:`repro.resilience.faults`) that injects engine-level
    faults — SIGKILL a worker mid-task, stall past the heartbeat deadline,
    truncate a checkpoint, corrupt a result entry — to prove every recovery
    path under test and in CI.
"""

from repro.durability.chaos import CHAOS_KINDS, ChaosInjector, ChaosPlan
from repro.durability.checkpoint import (
    CHECKPOINT_FORMAT,
    Checkpoint,
    CheckpointError,
    load_checkpoint,
    save_checkpoint,
)
from repro.durability.runner import run_spec_durable
from repro.durability.supervisor import (
    DurabilityPolicy,
    SupervisorConfig,
    execute_plan_supervised,
)

__all__ = [
    "CHAOS_KINDS",
    "CHECKPOINT_FORMAT",
    "Checkpoint",
    "CheckpointError",
    "ChaosInjector",
    "ChaosPlan",
    "DurabilityPolicy",
    "SupervisorConfig",
    "execute_plan_supervised",
    "load_checkpoint",
    "run_spec_durable",
    "save_checkpoint",
]
