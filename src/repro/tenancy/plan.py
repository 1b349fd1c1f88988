"""Multi-tenant run descriptions: who runs, for how long, sharing what.

A :class:`TenantPlan` is the tenancy analogue of
:class:`~repro.engine.spec.RunSpec`: a frozen, serializable description of
one deterministic co-run — the tenant mix (each an existing workload at an
existing measurement level, with its own optimizer configuration), the
round-robin quantum and the hierarchy sharing mode — plus a content
fingerprint built from the same three ingredients as a run spec (canonical
JSON + :func:`~repro.engine.spec.code_version` + the cache salt), so
tenancy results memoize in the same :class:`~repro.engine.cache.ResultStore`
without ever colliding with single-run entries.

Sharing modes:

``shared``      one L1 and one L2 for everybody — full contention.
``private-l1``  per-tenant L1s over one shared L2 — the paper-era server
                configuration the ROADMAP's scenario asks about.
"""

from __future__ import annotations

import hashlib
import json
import os
from dataclasses import dataclass, field
from typing import Optional

from repro.core.config import OptimizerConfig
from repro.engine.spec import CACHE_SALT_ENV, code_version
from repro.errors import ConfigError
from repro.machine.config import MachineConfig, PAPER_MACHINE
from repro.machine.hierarchy import SHARING_MODES

#: Format version stamped into serialized tenant plans; bump on schema changes.
TENANCY_FORMAT = 1


@dataclass(frozen=True)
class TenantSpec:
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

    def to_dict(self) -> dict[str, object]:
        return {
            "workload": self.workload,
            "level": self.level,
            "passes": self.passes,
            "opt": self.opt.to_dict(),
            "name": self.name,
        }

    @classmethod
    def from_dict(cls, data: dict[str, object]) -> "TenantSpec":
        passes = data.get("passes")
        name = data.get("name")
        return cls(
            workload=str(data["workload"]),
            level=str(data["level"]),
            passes=None if passes is None else int(passes),
            opt=OptimizerConfig.from_dict(data["opt"]),
            name=None if name is None else str(name),
        )

    def cache_key_dict(self) -> dict[str, object]:
        """``to_dict`` with the optimizer normalized away for levels that
        never read it (the same equivalence :class:`RunSpec` applies)."""
        from repro.engine.levels import get_level

        doc = self.to_dict()
        if not get_level(self.level).uses_opt:
            doc["opt"] = OptimizerConfig().to_dict()
        return doc


@dataclass(frozen=True)
class TenantPlan:
    """A deterministic co-run: tenant mix + quantum + sharing mode + machine."""

    tenants: tuple[TenantSpec, ...]
    quantum: int = 4096
    sharing: str = "private-l1"
    machine: MachineConfig = PAPER_MACHINE

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

    def to_dict(self) -> dict[str, object]:
        return {
            "format": TENANCY_FORMAT,
            "tenants": [t.to_dict() for t in self.tenants],
            "quantum": self.quantum,
            "sharing": self.sharing,
            "machine": self.machine.to_dict(),
        }

    @classmethod
    def from_dict(cls, data: dict[str, object]) -> "TenantPlan":
        fmt = data.get("format")
        if fmt != TENANCY_FORMAT:
            raise ConfigError(f"unsupported serialized TenantPlan format {fmt!r}")
        return cls(
            tenants=tuple(TenantSpec.from_dict(t) for t in data["tenants"]),
            quantum=int(data["quantum"]),
            sharing=str(data["sharing"]),
            machine=MachineConfig.from_dict(data["machine"]),
        )

    def cache_key_dict(self) -> dict[str, object]:
        doc = self.to_dict()
        doc["tenants"] = [t.cache_key_dict() for t in self.tenants]
        return doc

    def fingerprint(self) -> str:
        """Content address: plan + code version + salt, tagged ``tenancy``
        so it can never alias a :class:`RunSpec` fingerprint."""
        canonical = json.dumps(
            self.cache_key_dict(), sort_keys=True, separators=(",", ":")
        )
        digest = hashlib.sha256(b"tenancy-plan\0")
        digest.update(canonical.encode())
        digest.update(b"\0")
        digest.update(code_version().encode())
        digest.update(b"\0")
        digest.update(os.environ.get(CACHE_SALT_ENV, "").encode())
        return digest.hexdigest()
