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

Same determinism contract as :class:`~repro.resilience.faults.FaultInjector`:
one independent seeded PRNG stream per kind, draws consumed even when a kind
is disabled or capped, so the decision sequence for a kind depends only on
its own opportunity index.  Every fired fault is recorded on
:attr:`ChaosInjector.fired` — recovery is proven by the run's results being
byte-identical to an undisturbed run's.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from pathlib import Path
from typing import Optional, Union

from repro.errors import ConfigError

CHAOS_KINDS = (
    "kill_worker",
    "stall_worker",
    "truncate_checkpoint",
    "corrupt_cache_entry",
)


@dataclass(frozen=True)
class ChaosPlan:
    """What to break, how often, bounded and fully determined by ``seed``.

    Attributes:
        seed: PRNG seed; two injectors built from equal plans behave
            identically.
        rate: per-opportunity firing probability of each enabled kind
            (default 1.0: every opportunity fires until the cap — chaos runs
            want faults, not dice).
        kinds: the enabled fault kinds (subset of :data:`CHAOS_KINDS`).
        max_per_kind: cap on firings per kind over a plan execution, so a
            chaos run terminates instead of retrying forever.
    """

    seed: int = 0
    rate: float = 1.0
    kinds: tuple[str, ...] = CHAOS_KINDS
    max_per_kind: int = 1

    def __post_init__(self) -> None:
        unknown = set(self.kinds) - set(CHAOS_KINDS)
        if unknown:
            raise ConfigError(f"unknown chaos kinds {sorted(unknown)}; known: {CHAOS_KINDS}")
        if not 0.0 <= self.rate <= 1.0:
            raise ConfigError("rate must be in [0, 1]")
        if self.max_per_kind < 1:
            raise ConfigError("max_per_kind must be >= 1")

    def to_dict(self) -> dict[str, object]:
        """JSON-serializable view (CLI/CI round trips)."""
        return {
            "seed": self.seed,
            "rate": self.rate,
            "kinds": list(self.kinds),
            "max_per_kind": self.max_per_kind,
        }

    @classmethod
    def from_dict(cls, data: dict[str, object]) -> "ChaosPlan":
        """Inverse of :meth:`to_dict`."""
        return cls(
            seed=int(data["seed"]),
            rate=float(data["rate"]),
            kinds=tuple(str(k) for k in data["kinds"]),
            max_per_kind=int(data["max_per_kind"]),
        )


class ChaosInjector:
    """Executes a :class:`ChaosPlan` with per-kind deterministic PRNG streams."""

    def __init__(self, plan: ChaosPlan) -> None:
        self.plan = plan
        self._rngs = {
            kind: random.Random((plan.seed << 8) ^ (index + 1))
            for index, kind in enumerate(CHAOS_KINDS)
        }
        self.counts: dict[str, int] = {kind: 0 for kind in CHAOS_KINDS}
        #: (kind, detail) of every fault fired, in order
        self.fired: list[tuple[str, str]] = []

    def fire(self, kind: str, detail: str = "") -> bool:
        """One injection opportunity for ``kind``; True if the fault fires.

        Draws are consumed even when the kind is disabled or capped, so the
        decision sequence for a kind depends only on its opportunity index.
        """
        draw = self._rngs[kind].random()
        if kind not in self.plan.kinds:
            return False
        if self.counts[kind] >= self.plan.max_per_kind:
            return False
        if draw >= self.plan.rate:
            return False
        self.counts[kind] += 1
        self.fired.append((kind, detail))
        return True

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
