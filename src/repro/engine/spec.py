"""Frozen, serializable jobs with content fingerprints.

A :class:`RunSpec` captures *everything* that determines a simulated run's
outcome: the workload name, the pass-count override, the measurement level,
the machine model and the optimizer configuration.  Two specs with equal
fingerprints are guaranteed (by the simulator's determinism, which the
oracle subsystem continuously verifies) to produce bit-identical results —
which is exactly the license the result cache needs to replay one instead of
simulating.  A run spec is one kind of :class:`Job`; a tenancy co-run
(:class:`~repro.tenancy.plan.TenantPlan`) is the other.

Every job's fingerprint (:func:`job_fingerprint`) is a sha256 over the job's
``kind`` and three ingredients:

1. the job's canonical JSON form — with each optimizer config *normalized
   to the default* (:func:`opt_key`) for levels that never read it
   (``orig``, ``base``, ``stride``, ``markov``), so e.g. the ``orig``
   baseline is shared across ablations that sweep optimizer configs;
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
from typing import ClassVar, Iterator, Optional, Protocol

import repro
from repro.core.config import OptimizerConfig
from repro.engine.result import RunResult
from repro.machine.config import MachineConfig, PAPER_MACHINE
from repro.wire import Wire
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


def job_fingerprint(kind: str, key: dict[str, object]) -> str:
    """The one fingerprint recipe: kind + canonical ``key`` + code version + salt."""
    canonical = json.dumps(key, sort_keys=True, separators=(",", ":"))
    parts = (kind, canonical, code_version(), os.environ.get(CACHE_SALT_ENV, ""))
    return hashlib.sha256("\0".join(parts).encode()).hexdigest()


def opt_key(level: str, opt: OptimizerConfig) -> dict[str, object]:
    """``opt`` as a fingerprint sees it: the default for levels that never
    read it."""
    from repro.engine.levels import get_level

    return (opt if get_level(level).uses_opt else OptimizerConfig()).to_dict()


class Job(Protocol):
    """What the result store and the executor need of a unit of work.

    ``kind`` tags the fingerprint and the store entry; ``run`` simulates
    the job and ``decode`` rebuilds its result from ``result.to_dict()``.
    """

    kind: ClassVar[str]

    def cache_key_dict(self) -> dict[str, object]: ...

    def fingerprint(self) -> str: ...

    def run(self): ...

    def decode(self, doc: dict): ...


@dataclass(frozen=True)
class RunSpec(Wire):
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

    kind: ClassVar[str] = "run"
    WIRE_FORMAT = SPEC_FORMAT

    @property
    def label(self) -> str:
        return f"{self.workload}/{self.level}"

    def cache_key_dict(self) -> dict[str, object]:
        """The dict the fingerprint hashes: ``to_dict`` with the optimizer
        config normalized away for levels that never consume it."""
        doc = self.to_dict()
        doc["opt"] = opt_key(self.level, self.opt)
        return doc

    def fingerprint(self) -> str:
        """Deterministic content address (:func:`job_fingerprint`)."""
        return job_fingerprint(self.kind, self.cache_key_dict())

    def run(self, telemetry=None) -> RunResult:
        """Simulate the spec; ``telemetry`` attaches an event session."""
        from repro.engine.levels import execute_workload

        return execute_workload(self.build(), self.level, self.machine, self.opt, telemetry)

    def decode(self, doc: dict) -> RunResult:
        return RunResult.from_dict(doc)

    def build(self) -> BuiltWorkload:
        """Materialize the spec's workload (runs mutate simulated memory, so
        every execution rebuilds from scratch)."""
        from repro.workloads import build_named

        return build_named(self.workload, passes=self.passes)


@dataclass(frozen=True)
class RunPlan:
    """An ordered batch of jobs (the unit the executor consumes)."""

    specs: tuple[Job, ...] = ()

    @classmethod
    def of(cls, *specs: Job) -> "RunPlan":
        return cls(specs=tuple(specs))

    def __len__(self) -> int:
        return len(self.specs)

    def __iter__(self) -> Iterator[Job]:
        return iter(self.specs)

    def __getitem__(self, index: int) -> Job:
        return self.specs[index]

    def fingerprint(self) -> str:
        """Content address of the whole plan: sha256 over its job
        fingerprints, in order."""
        digest = hashlib.sha256()
        for spec in self.specs:
            digest.update(spec.fingerprint().encode())
            digest.update(b"\0")
        return digest.hexdigest()
