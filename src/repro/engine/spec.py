"""Frozen, serializable run specifications with content fingerprints.

A :class:`RunSpec` captures *everything* that determines a simulated run's
outcome: the workload name, the pass-count override, the measurement level,
the machine model and the optimizer configuration.  Two specs with equal
fingerprints are guaranteed (by the simulator's determinism, which the
oracle subsystem continuously verifies) to produce bit-identical results —
which is exactly the license the result cache needs to replay one instead of
simulating.

The fingerprint is a sha256 over three ingredients:

1. the spec's canonical JSON form — with the optimizer config *normalized to
   the default* for levels that never read it (``orig``, ``base``,
   ``stride``, ``markov``), so e.g. the ``orig`` baseline is shared across
   ablations that sweep optimizer configs;
2. :func:`code_version`, a digest of every ``repro`` source file — editing
   the simulator invalidates every cached result it could have influenced
   (coarse, but correct, and the corpus is cheap to rebuild);
3. the ``REPRO_CACHE_SALT`` environment variable, an escape hatch for
   forcing a cold cache without deleting it.
"""

from __future__ import annotations

import hashlib
import json
import os
from dataclasses import dataclass, field
from functools import lru_cache
from pathlib import Path
from typing import Iterator, Optional

import repro
from repro.core.config import OptimizerConfig
from repro.errors import ConfigError
from repro.machine.config import MachineConfig, PAPER_MACHINE
from repro.workloads.base import BuiltWorkload

#: Format version stamped into serialized specs; bump on schema changes.
SPEC_FORMAT = 1

#: Environment variable mixed into every fingerprint (cold-cache escape hatch).
CACHE_SALT_ENV = "REPRO_CACHE_SALT"


@lru_cache(maxsize=1)
def code_version() -> str:
    """Digest of every ``repro`` source file (the cache-invalidation salt).

    Any edit under ``src/repro`` changes this value and therefore every spec
    fingerprint: the cache never has to reason about *which* module a result
    depended on.
    """
    root = Path(repro.__file__).resolve().parent
    digest = hashlib.sha256()
    for path in sorted(root.rglob("*.py")):
        digest.update(str(path.relative_to(root)).encode())
        digest.update(b"\0")
        digest.update(path.read_bytes())
        digest.update(b"\0")
    return digest.hexdigest()


@dataclass(frozen=True)
class RunSpec:
    """Everything that determines one run's outcome, frozen.

    ``passes=None`` means the workload preset's default; it is kept distinct
    from the resolved value in the fingerprint (the preset default is itself
    covered by the code-version salt).
    """

    workload: str
    level: str
    passes: Optional[int] = None
    machine: MachineConfig = PAPER_MACHINE
    opt: OptimizerConfig = field(default_factory=OptimizerConfig)

    @property
    def label(self) -> str:
        return f"{self.workload}/{self.level}"

    def to_dict(self) -> dict[str, object]:
        return {
            "format": SPEC_FORMAT,
            "workload": self.workload,
            "level": self.level,
            "passes": self.passes,
            "machine": self.machine.to_dict(),
            "opt": self.opt.to_dict(),
        }

    @classmethod
    def from_dict(cls, data: dict[str, object]) -> "RunSpec":
        fmt = data.get("format")
        if fmt != SPEC_FORMAT:
            raise ConfigError(f"unsupported serialized RunSpec format {fmt!r}")
        passes = data.get("passes")
        return cls(
            workload=str(data["workload"]),
            level=str(data["level"]),
            passes=None if passes is None else int(passes),
            machine=MachineConfig.from_dict(data["machine"]),
            opt=OptimizerConfig.from_dict(data["opt"]),
        )

    def cache_key_dict(self) -> dict[str, object]:
        """The dict the fingerprint hashes: ``to_dict`` with the optimizer
        config normalized away for levels that never consume it."""
        from repro.engine.levels import get_level

        doc = self.to_dict()
        if not get_level(self.level).uses_opt:
            doc["opt"] = OptimizerConfig().to_dict()
        return doc

    def fingerprint(self) -> str:
        """Deterministic content address: spec + code version + salt."""
        canonical = json.dumps(
            self.cache_key_dict(), sort_keys=True, separators=(",", ":")
        )
        digest = hashlib.sha256(canonical.encode())
        digest.update(b"\0")
        digest.update(code_version().encode())
        digest.update(b"\0")
        digest.update(os.environ.get(CACHE_SALT_ENV, "").encode())
        return digest.hexdigest()

    def build(self) -> BuiltWorkload:
        """Materialize the spec's workload (runs mutate simulated memory, so
        every execution rebuilds from scratch)."""
        from repro.workloads import build_named

        return build_named(self.workload, passes=self.passes)


@dataclass(frozen=True)
class RunPlan:
    """An ordered batch of run specs (the unit the executor consumes)."""

    specs: tuple[RunSpec, ...] = ()

    @classmethod
    def of(cls, *specs: RunSpec) -> "RunPlan":
        return cls(specs=tuple(specs))

    def __len__(self) -> int:
        return len(self.specs)

    def __iter__(self) -> Iterator[RunSpec]:
        return iter(self.specs)

    def __getitem__(self, index: int) -> RunSpec:
        return self.specs[index]

    def fingerprint(self) -> str:
        """Content address of the whole plan: sha256 over its spec
        fingerprints, in order."""
        digest = hashlib.sha256()
        for spec in self.specs:
            digest.update(spec.fingerprint().encode())
            digest.update(b"\0")
        return digest.hexdigest()
