"""Deterministic chaos harness for the engine's durability machinery.

:mod:`repro.resilience.faults` injects faults *inside* the simulated
pipeline; this module injects them *around* it — at the process/filesystem
layer the supervised executor defends:

====================  ========================================================
``kill_worker``       the worker SIGKILLs itself mid-task (after its first
                      heartbeat), exercising crash detection + retry + the
                      checkpoint-resume path
``stall_worker``      the worker stops heartbeating and sleeps, exercising
                      the stall deadline
``truncate_checkpoint``  a dead worker's checkpoint file is truncated before
                      the retry, exercising integrity rejection and
                      recompute-from-start
``corrupt_cache_entry``  one byte of a just-stored result entry is flipped,
                      exercising the store's corrupt-degrades-to-miss path
====================  ========================================================

Same determinism contract as :class:`~repro.resilience.faults.FaultInjector`
— both build on :class:`~repro.resilience.faults.SeededInjector`: one
independent seeded PRNG stream per kind, draws consumed even when a kind is
disabled or capped, so the decision sequence for a kind depends only on its
own opportunity index.  Every fired fault is recorded on
:attr:`ChaosInjector.fired` — recovery is proven by the run's results being
byte-identical to an undisturbed run's.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path
from typing import ClassVar, Optional, Union

from repro.resilience.faults import InjectionPlan, SeededInjector

CHAOS_KINDS = (
    "kill_worker",
    "stall_worker",
    "truncate_checkpoint",
    "corrupt_cache_entry",
)


@dataclass(frozen=True)
class ChaosPlan(InjectionPlan):
    """An :class:`~repro.resilience.faults.InjectionPlan` over
    :data:`CHAOS_KINDS`.  The default ``rate`` of 1.0 fires every
    opportunity until the cap (chaos runs want faults, not dice), and the
    default cap is one firing per kind over a plan execution, so a chaos run
    terminates instead of retrying forever."""

    KINDS: ClassVar[tuple[str, ...]] = CHAOS_KINDS

    kinds: tuple[str, ...] = CHAOS_KINDS


class ChaosInjector(SeededInjector):
    """Executes a :class:`ChaosPlan`; ``fired`` records (kind, target)."""

    # ------------------------------------------------- filesystem sabotage
    # The injector both decides *and* performs the corruption, drawing the
    # target offset from the firing kind's own stream so the damage is as
    # reproducible as the decision.

    def corrupt_file(self, path: Union[str, Path], kind: str) -> Optional[int]:
        """Flip one byte of ``path`` at a PRNG-chosen offset; the offset, or
        None if the file is missing/empty (the draw is consumed either way)."""
        rng = self._rngs[kind]
        draw = rng.random()
        path = Path(path)
        try:
            data = bytearray(path.read_bytes())
        except OSError:
            return None
        if not data:
            return None
        offset = int(draw * len(data)) % len(data)
        data[offset] ^= 0x01
        path.write_bytes(bytes(data))
        return offset

    def truncate_file(self, path: Union[str, Path]) -> Optional[int]:
        """Cut ``path`` to half its size; the new size, or None if missing."""
        path = Path(path)
        try:
            size = path.stat().st_size
        except OSError:
            return None
        keep = size // 2
        with open(path, "rb+") as fh:
            fh.truncate(keep)
        return keep
