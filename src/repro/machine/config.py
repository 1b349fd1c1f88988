"""Machine configuration: cache geometry and cycle-cost model.

The paper measured on a 550 MHz Pentium III with a 16 KB 4-way L1 data cache
and a 256 KB 8-way L2, both with 32-byte blocks (Section 4.1).  The defaults
below reproduce that geometry.  Latencies are in simulated cycles and follow
typical values for that era: an L1 hit is free (folded into the 1-cycle
instruction cost), an L1 miss that hits in L2 pays ``l2_latency``, and a miss
to memory pays ``memory_latency``.

The cost knobs for checks, trace records, DFSM detection and prefetch issue
model the instrumentation overhead that Figures 11 and 12 measure; they are
deliberately explicit so experiments can ablate them.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.errors import ConfigError
from repro.wire import Wire


def _is_pow2(value: int) -> bool:
    return value > 0 and (value & (value - 1)) == 0


@dataclass(frozen=True)
class CacheGeometry(Wire):
    """Geometry of one cache level."""

    size_bytes: int
    associativity: int
    block_bytes: int = 32

    def __post_init__(self) -> None:
        if not _is_pow2(self.block_bytes):
            raise ConfigError(f"block_bytes must be a power of two, got {self.block_bytes}")
        if self.associativity < 1:
            raise ConfigError(f"associativity must be >= 1, got {self.associativity}")
        if self.size_bytes % (self.block_bytes * self.associativity) != 0:
            raise ConfigError(
                f"size {self.size_bytes} is not divisible by "
                f"block*assoc = {self.block_bytes * self.associativity}"
            )
        if not _is_pow2(self.num_sets):
            raise ConfigError(f"number of sets must be a power of two, got {self.num_sets}")

    @property
    def num_sets(self) -> int:
        """Number of sets in the cache."""
        return self.size_bytes // (self.block_bytes * self.associativity)

    @property
    def num_blocks(self) -> int:
        """Total number of block frames."""
        return self.size_bytes // self.block_bytes


@dataclass(frozen=True)
class MachineConfig(Wire):
    """Complete timing and geometry model of the simulated machine.

    Attributes:
        l1: L1 data cache geometry (paper: 16 KB, 4-way, 32 B blocks).
        l2: L2 unified cache geometry (paper: 256 KB, 8-way, 32 B blocks).
        l2_latency: extra cycles for an L1 miss that hits in L2.
        memory_latency: extra cycles for a miss that goes to memory.
        check_cost: cycles consumed by one executed ``CHECK`` (counter
            decrement plus conditional branch; the paper's "Base" overhead).
        trace_cost: extra cycles per data reference recorded while executing
            the instrumented code version (the paper's "Prof" overhead).
        detect_base: fixed cycles for entering an injected detection handler.
        detect_per_case: cycles per (state, address) case examined inside a
            detection handler before the match is resolved.
        prefetch_issue_cost: cycles to issue one prefetch instruction.
        analysis_cost_per_symbol: simulated cycles charged per traced symbol
            when the online Sequitur + hot-data-stream analysis runs (the
            paper's "Hds" overhead); the analysis genuinely runs, this only
            charges its cost to simulated time.
    """

    l1: CacheGeometry = field(default_factory=lambda: CacheGeometry(16 * 1024, 4))
    l2: CacheGeometry = field(default_factory=lambda: CacheGeometry(256 * 1024, 8))
    l2_latency: int = 12
    memory_latency: int = 100
    check_cost: int = 2
    trace_cost: int = 6
    detect_base: int = 1
    detect_per_case: int = 1
    prefetch_issue_cost: int = 1
    analysis_cost_per_symbol: int = 4

    def __post_init__(self) -> None:
        if self.l1.block_bytes != self.l2.block_bytes:
            raise ConfigError("L1 and L2 must share a block size in this model")
        for name in (
            "l2_latency",
            "memory_latency",
            "check_cost",
            "trace_cost",
            "detect_base",
            "detect_per_case",
            "prefetch_issue_cost",
            "analysis_cost_per_symbol",
        ):
            if getattr(self, name) < 0:
                raise ConfigError(f"{name} must be non-negative")
        if self.memory_latency < self.l2_latency:
            raise ConfigError("memory_latency must be >= l2_latency")

    @property
    def block_bytes(self) -> int:
        """Cache block size shared by both levels."""
        return self.l1.block_bytes


#: Geometry and latencies matching the paper's Pentium III testbed.
PAPER_MACHINE = MachineConfig()
