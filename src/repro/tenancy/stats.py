"""Tenant-scoped run outcomes and the cross-tenant pollution matrix.

The single-run world serializes one :class:`~repro.engine.result.RunResult`;
a co-run produces one :class:`TenantStats` per tenant (the same ingredients:
``ExecStats`` + a hierarchy snapshot + optimizer summary + metrics, re-keyed
by ``tenant_id``) plus co-run-level facts no single run has — the
:class:`PollutionMatrix` and the shared-cache eviction split by cause.
Everything round-trips through JSON bit-identically, which is what lets
:class:`TenancyResult` memoize in the engine's content-addressed store the
same way single runs do.
"""

from __future__ import annotations

import copy
from dataclasses import dataclass, field
from typing import Optional

from repro.core.stats import OptimizerSummary
from repro.errors import ConfigError
from repro.interp.interpreter import ExecStats
from repro.machine.hierarchy import HierarchyStats
from repro.tenancy.plan import TenantPlan

#: Format version stamped into serialized tenancy results.
TENANCY_RESULT_FORMAT = 1


@dataclass
class PollutionMatrix:
    """Who evicted whom: ``counts[(issuer, victim_owner)]`` is the number of
    lines tenant *issuer*'s prefetches evicted from a shared cache level
    that belonged to tenant *victim_owner*.

    The diagonal is self-pollution (a tenant's prefetch displacing its own
    line); off-diagonal entries are cross-tenant damage.  The matrix is
    exact, not sampled: its total equals the prefetch-caused share of the
    shared caches' eviction counters, and ``repro-bench verify`` pins that
    reconciliation.
    """

    counts: dict[tuple[int, int], int] = field(default_factory=dict)

    def total(self) -> int:
        return sum(self.counts.values())

    def get(self, issuer: int, victim: int) -> int:
        return self.counts.get((issuer, victim), 0)

    def inflicted_by(self, tenant_id: int) -> int:
        """Evictions of *other* tenants' lines caused by this tenant."""
        return sum(
            n for (issuer, victim), n in self.counts.items()
            if issuer == tenant_id and victim != tenant_id
        )

    def suffered_by(self, tenant_id: int) -> int:
        """This tenant's lines evicted by *other* tenants' prefetches."""
        return sum(
            n for (issuer, victim), n in self.counts.items()
            if victim == tenant_id and issuer != tenant_id
        )

    def self_inflicted(self, tenant_id: int) -> int:
        return self.counts.get((tenant_id, tenant_id), 0)

    def to_dict(self) -> dict[str, object]:
        """JSON view: sorted ``[issuer, victim, count]`` triples (tuple keys
        do not survive JSON)."""
        return {
            "cells": [
                [issuer, victim, n]
                for (issuer, victim), n in sorted(self.counts.items())
            ],
        }

    @classmethod
    def from_dict(cls, data: dict[str, object]) -> "PollutionMatrix":
        counts: dict[tuple[int, int], int] = {}
        for issuer, victim, n in data.get("cells", []):
            counts[(int(issuer), int(victim))] = int(n)
        return cls(counts=counts)


@dataclass
class TenantStats:
    """One tenant's slice of a co-run — a :class:`RunResult` re-keyed by
    ``tenant_id``, plus scheduling facts (slice count, cache occupancy is
    ``stats.cycles``)."""

    tenant_id: int
    name: str
    workload: str
    level: str
    stats: ExecStats
    hierarchy: HierarchyStats
    summary: Optional[OptimizerSummary] = None
    #: the tenant's rendered metrics snapshot
    metrics: Optional[dict] = None
    #: number of scheduler slices this tenant ran (its quantum grants)
    slices: int = 0

    @property
    def cycles(self) -> int:
        """Cycles this tenant occupied the machine (its share of the clock)."""
        return self.stats.cycles

    def to_dict(self) -> dict[str, object]:
        return {
            "tenant_id": self.tenant_id,
            "name": self.name,
            "workload": self.workload,
            "level": self.level,
            "stats": self.stats.to_dict(),
            "hierarchy": self.hierarchy.to_dict(),
            "summary": None if self.summary is None else self.summary.to_dict(),
            "metrics": copy.deepcopy(self.metrics),
            "slices": self.slices,
        }

    @classmethod
    def from_dict(cls, data: dict[str, object]) -> "TenantStats":
        summary = data.get("summary")
        return cls(
            tenant_id=int(data["tenant_id"]),
            name=str(data["name"]),
            workload=str(data["workload"]),
            level=str(data["level"]),
            stats=ExecStats.from_dict(data["stats"]),
            hierarchy=HierarchyStats.from_dict(data["hierarchy"]),
            summary=None if summary is None else OptimizerSummary.from_dict(summary),
            metrics=copy.deepcopy(data.get("metrics")),
            slices=int(data.get("slices", 0)),
        )


@dataclass
class TenancyResult:
    """Outcome of one deterministic co-run of a :class:`TenantPlan`."""

    plan: TenantPlan
    tenants: tuple[TenantStats, ...]
    pollution: PollutionMatrix
    #: final value of the global interleaved clock
    global_cycles: int
    #: shared-cache evictions split by the cause of the triggering install
    demand_shared_evictions: int
    prefetch_shared_evictions: int
    #: what the shared cache levels themselves counted (the reconciliation
    #: target: demand + prefetch causes must sum to this)
    shared_cache_evictions: int
    #: True when this result was replayed from the result cache
    from_cache: bool = False

    def tenant(self, tenant_id: int) -> TenantStats:
        return self.tenants[tenant_id]

    def to_dict(self) -> dict[str, object]:
        """Exact serialized form (``from_cache`` is transport state, not
        content, and is deliberately excluded — cached replays compare
        bit-identical to live runs)."""
        return {
            "format": TENANCY_RESULT_FORMAT,
            "plan": self.plan.to_dict(),
            "tenants": [t.to_dict() for t in self.tenants],
            "pollution": self.pollution.to_dict(),
            "global_cycles": self.global_cycles,
            "demand_shared_evictions": self.demand_shared_evictions,
            "prefetch_shared_evictions": self.prefetch_shared_evictions,
            "shared_cache_evictions": self.shared_cache_evictions,
        }

    @classmethod
    def from_dict(cls, data: dict[str, object]) -> "TenancyResult":
        fmt = data.get("format")
        if fmt != TENANCY_RESULT_FORMAT:
            raise ConfigError(f"unsupported serialized TenancyResult format {fmt!r}")
        return cls(
            plan=TenantPlan.from_dict(data["plan"]),
            tenants=tuple(TenantStats.from_dict(t) for t in data["tenants"]),
            pollution=PollutionMatrix.from_dict(data["pollution"]),
            global_cycles=int(data["global_cycles"]),
            demand_shared_evictions=int(data["demand_shared_evictions"]),
            prefetch_shared_evictions=int(data["prefetch_shared_evictions"]),
            shared_cache_evictions=int(data["shared_cache_evictions"]),
        )

    def as_single_run_result(self):
        """Collapse an N=1 co-run into the equivalent single-run result.

        This is the N=1 equivalence surface: for a one-tenant plan the
        returned object's ``to_dict()`` must be byte-identical to what
        ``run_workload`` produces for the same (workload, level, opt,
        machine) — the oracle pins it.
        """
        from repro.engine.result import RunResult

        if len(self.tenants) != 1:
            raise ConfigError(
                f"as_single_run_result needs exactly one tenant, have {len(self.tenants)}"
            )
        t = self.tenants[0]
        return RunResult(
            workload=t.workload,
            level=t.level,
            stats=t.stats,
            hierarchy=t.hierarchy,
            summary=t.summary,
            metrics=t.metrics,
            from_cache=self.from_cache,
        )
