"""Deterministic, seeded fault injection for the optimization pipeline.

Robustness claims are only testable if failures are reproducible on demand.
A :class:`FaultPlan` is a frozen description of *what can go wrong and how
often*; a :class:`FaultInjector` executes the plan with one independent
seeded PRNG stream per fault kind, so

* the same (plan, workload) pair always injects the same faults at the same
  opportunities, and
* enabling one kind never perturbs the draw sequence of another.

Injection sites live in :class:`~repro.core.optimizer.DynamicPrefetcher`:

==================  =========================================================
``corrupt_record``  for one burst, traced references are mutated before they
                    reach Sequitur (garbage addresses, occasionally a pc
                    pointing at a procedure that does not exist — which later
                    trips the dynamic editor)
``drop_burst``      one burst's traced references are discarded entirely
``analysis_error``  the analysis phase raises :class:`InjectedFault`
``cache_flush``     both cache levels are flushed mid-hibernation
``delayed_patch``   the built handlers are installed several burst-periods
                    late instead of at the awake→hibernate transition
==================  =========================================================

Every fired fault is recorded on :attr:`FaultInjector.fired` and (by the
optimizer) emitted as a ``FaultInjected`` telemetry event.

:class:`InjectionPlan` and :class:`SeededInjector` are the seeded core this
module shares with the engine-level chaos harness
(:mod:`repro.durability.chaos`): the plan checks, the per-kind streams and
the one ``fire``.
"""

from __future__ import annotations

import hashlib
import random
from dataclasses import dataclass, replace
from typing import ClassVar

from repro.errors import AnalysisError, ConfigError
from repro.ir.instructions import Pc
from repro.wire import Wire

FAULT_KINDS = (
    "corrupt_record",
    "drop_burst",
    "analysis_error",
    "cache_flush",
    "delayed_patch",
)

#: Name of the nonexistent procedure corrupted pcs point at.
CORRUPT_PROC = "__faultinjected__"


def derive_tenant_seed(seed: int, tenant_id: int) -> int:
    """Per-tenant fault seed, stable across tenant-mix changes.

    Derivation is a pure function of (base seed, tenant id) — a hash, not an
    offset — so adding/removing/reordering *other* tenants never perturbs a
    tenant's fault sequence, and no arithmetic relationship between base
    seeds can make two tenants' streams collide systematically.  Tenant 0
    keeps the base seed unchanged: a single-tenant plan injects exactly the
    faults the equivalent single run does (the N=1 equivalence invariant).
    """
    if tenant_id == 0:
        return seed
    digest = hashlib.sha256(f"fault-seed:{seed}:{tenant_id}".encode()).digest()
    return int.from_bytes(digest[:8], "big")


class InjectedFault(AnalysisError):
    """A deliberately injected analysis failure (typed, catchable, expected)."""

    def __init__(self, kind: str, message: str = "") -> None:
        super().__init__(message or f"injected fault: {kind}")
        self.kind = kind


@dataclass(frozen=True)
class InjectionPlan:
    """What to break, how often, bounded and fully determined by ``seed``.

    Attributes:
        seed: PRNG seed; two injectors built from equal plans behave
            identically.
        rate: per-opportunity firing probability of each enabled kind.
        kinds: the enabled kinds (a subset of the class's :attr:`KINDS`).
        max_per_kind: cap on firings per kind, so an adversarial run stays
            bounded.
    """

    #: Every kind an injector of this plan knows; the index of a kind here
    #: seeds its stream.
    KINDS: ClassVar[tuple[str, ...]] = ()

    seed: int = 0
    rate: float = 1.0
    kinds: tuple[str, ...] = ()
    max_per_kind: int = 1

    def __post_init__(self) -> None:
        unknown = set(self.kinds) - set(self.KINDS)
        if unknown:
            raise ConfigError(f"unknown kinds {sorted(unknown)}; known: {self.KINDS}")
        if not 0.0 <= self.rate <= 1.0:
            raise ConfigError("rate must be in [0, 1]")
        if self.max_per_kind < 1:
            raise ConfigError("max_per_kind must be >= 1")


class SeededInjector:
    """Executes an :class:`InjectionPlan` with per-kind deterministic PRNG
    streams (``(seed << 8) ^ (index + 1)``)."""

    def __init__(self, plan: InjectionPlan) -> None:
        self.plan = plan
        self._rngs = {
            kind: random.Random((plan.seed << 8) ^ (index + 1))
            for index, kind in enumerate(plan.KINDS)
        }
        self.counts: dict[str, int] = {kind: 0 for kind in plan.KINDS}
        #: (kind, detail) of every fault fired, in order
        self.fired: list[tuple[str, object]] = []

    def fire(self, kind: str, detail: object = None) -> bool:
        """One injection opportunity for ``kind``; True if the fault fires.

        Draws are consumed even when the kind is disabled or capped, so the
        decision sequence for a kind depends only on its opportunity index —
        never on how other kinds are configured.
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


@dataclass(frozen=True)
class FaultPlan(InjectionPlan, Wire):
    """An :class:`InjectionPlan` over :data:`FAULT_KINDS`, plus:

    Attributes:
        record_corrupt_rate: probability that any single traced reference is
            mutated while a ``corrupt_record`` burst is active.
        patch_delay_bursts: burst-periods a ``delayed_patch`` holds the
            handlers back.
    """

    KINDS: ClassVar[tuple[str, ...]] = FAULT_KINDS

    rate: float = 0.25
    kinds: tuple[str, ...] = FAULT_KINDS
    max_per_kind: int = 4
    record_corrupt_rate: float = 0.125
    patch_delay_bursts: int = 3

    def __post_init__(self) -> None:
        super().__post_init__()
        if not 0.0 <= self.record_corrupt_rate <= 1.0:
            raise ConfigError("record_corrupt_rate must be in [0, 1]")
        if self.patch_delay_bursts < 1:
            raise ConfigError("patch_delay_bursts must be >= 1")

    def for_tenant(self, tenant_id: int) -> "FaultPlan":
        """The same plan with its seed re-derived for one tenant
        (:func:`derive_tenant_seed`; identity for tenant 0)."""
        return replace(self, seed=derive_tenant_seed(self.seed, tenant_id))


class FaultInjector(SeededInjector):
    """Executes a :class:`FaultPlan`; ``fired`` records (kind, simulated cycle)."""

    def __init__(self, plan: FaultPlan) -> None:
        super().__init__(plan)
        self._record_rng = random.Random((plan.seed << 8) ^ 0x7F)

    def corrupt_record(self, pc: Pc, addr: int) -> tuple[Pc, int]:
        """Mutate one traced reference (only called during a corrupt burst).

        Three deterministic flavours: a garbage (possibly negative) address,
        an address from a wild region of the address space, or a pc naming a
        procedure that does not exist — the last one survives analysis and
        detonates in the dynamic editor instead, exercising the deeper
        failure path.
        """
        rng = self._record_rng
        if rng.random() >= self.plan.record_corrupt_rate:
            return pc, addr
        flavour = rng.randrange(3)
        if flavour == 0:
            return pc, -((addr ^ 0x5A5A_5A5A) & 0x7FFF_FFFF) - 1
        if flavour == 1:
            return pc, (addr * 2_654_435_761) & 0x7FFF_FFFC
        return Pc(CORRUPT_PROC, rng.randrange(1 << 16)), addr
