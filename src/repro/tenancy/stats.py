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

from dataclasses import dataclass, field
from typing import Optional

from repro.core.stats import OptimizerSummary
from repro.errors import ConfigError
from repro.interp.interpreter import ExecStats
from repro.machine.hierarchy import HierarchyStats
from repro.tenancy.plan import TenantPlan
from repro.wire import Wire

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
        """Inverse of :meth:`to_dict`: the triples back to tuple keys."""
        counts: dict[tuple[int, int], int] = {}
        for issuer, victim, n in data.get("cells", []):
            counts[(int(issuer), int(victim))] = int(n)
        return cls(counts=counts)


@dataclass
class TenantStats(Wire):
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


@dataclass
class TenancyResult(Wire):
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

    WIRE_FORMAT = TENANCY_RESULT_FORMAT
    #: True when the result store replayed this result; transport state,
    #: not content, so not a field and not in the wire form.
    from_cache = False

    def tenant(self, tenant_id: int) -> TenantStats:
        return self.tenants[tenant_id]

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
