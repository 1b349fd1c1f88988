"""Multi-tenant run descriptions: who runs, for how long, sharing what.

A :class:`TenantPlan` is the tenancy analogue of
:class:`~repro.engine.spec.RunSpec`: a frozen, serializable description of
one deterministic co-run — the tenant mix (each an existing workload at an
existing measurement level, with its own optimizer configuration), the
round-robin quantum and the hierarchy sharing mode.  It is a job of kind
``tenancy`` (:class:`~repro.engine.spec.Job`): its fingerprint comes from
the run spec's recipe (:func:`~repro.engine.spec.job_fingerprint`), and it
knows how to run itself and decode its result, so co-runs memoize in the
same :class:`~repro.engine.cache.ResultStore` and run through the same
:func:`~repro.engine.executor.execute_plan` as single runs, without ever
colliding with single-run entries.

Sharing modes:

``shared``      one L1 and one L2 for everybody — full contention.
``private-l1``  per-tenant L1s over one shared L2 — the paper-era server
                configuration the ROADMAP's scenario asks about.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import ClassVar, Optional

from repro.core.config import OptimizerConfig
from repro.engine.spec import job_fingerprint, opt_key
from repro.errors import ConfigError
from repro.machine.config import MachineConfig, PAPER_MACHINE
from repro.machine.hierarchy import SHARING_MODES
from repro.wire import Wire

#: Format version stamped into serialized tenant plans; bump on schema changes.
TENANCY_FORMAT = 1


@dataclass(frozen=True)
class TenantSpec(Wire):
    """One tenant: a workload at a measurement level, plus its optimizer.

    ``name`` is a display label for scorecards; it never enters scheduling
    decisions.  ``passes=None`` means the workload preset's default, exactly
    as in :class:`~repro.engine.spec.RunSpec`.
    """

    workload: str
    level: str
    passes: Optional[int] = None
    opt: OptimizerConfig = field(default_factory=OptimizerConfig)
    name: Optional[str] = None

    @property
    def label(self) -> str:
        return self.name if self.name else self.workload

    def cache_key_dict(self) -> dict[str, object]:
        """``to_dict`` with the optimizer normalized away for levels that
        never read it (the same equivalence :class:`RunSpec` applies)."""
        doc = self.to_dict()
        doc["opt"] = opt_key(self.level, self.opt)
        return doc


@dataclass(frozen=True)
class TenantPlan(Wire):
    """A deterministic co-run: tenant mix + quantum + sharing mode + machine."""

    tenants: tuple[TenantSpec, ...]
    quantum: int = 4096
    sharing: str = "private-l1"
    machine: MachineConfig = PAPER_MACHINE

    kind: ClassVar[str] = "tenancy"
    WIRE_FORMAT = TENANCY_FORMAT

    def __post_init__(self) -> None:
        if not self.tenants:
            raise ConfigError("a TenantPlan needs at least one tenant")
        if self.quantum < 1:
            raise ConfigError("quantum must be >= 1 instruction")
        if self.sharing not in SHARING_MODES:
            raise ConfigError(
                f"unknown sharing mode {self.sharing!r}; known: {SHARING_MODES}"
            )

    def __len__(self) -> int:
        return len(self.tenants)

    @property
    def label(self) -> str:
        mix = "+".join(f"{t.workload}:{t.level}" for t in self.tenants)
        return f"tenancy[{mix}]"

    def tenant_name(self, tenant_id: int) -> str:
        """Display name for one tenant (unique even for repeated workloads)."""
        spec = self.tenants[tenant_id]
        return spec.name if spec.name else f"t{tenant_id}:{spec.workload}"

    def cache_key_dict(self) -> dict[str, object]:
        doc = self.to_dict()
        doc["tenants"] = [t.cache_key_dict() for t in self.tenants]
        return doc

    def fingerprint(self) -> str:
        """Deterministic content address (:func:`~repro.engine.spec.job_fingerprint`)."""
        return job_fingerprint(self.kind, self.cache_key_dict())

    def run(self):
        """Interleave the tenants to completion
        (:func:`~repro.tenancy.scheduler.run_tenant_plan`)."""
        from repro.tenancy import scheduler

        return scheduler.run_tenant_plan(self)

    def decode(self, doc: dict):
        from repro.tenancy.stats import TenancyResult

        return TenancyResult.from_dict(doc)
