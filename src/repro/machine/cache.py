"""Set-associative cache state with LRU replacement.

The cache holds *block numbers* (``address >> log2(block_bytes)``).  Each set
is an ordered list of tags, most-recently-used last, so an LRU eviction pops
from the front; sets are small (4- or 8-way), so a list scan is both simple
and fast.  :class:`~repro.machine.hierarchy.MemoryHierarchy` owns the policy
and writes its lookups, fills and evictions inline on ``_sets`` and the
counters; this class keeps the state, the counters and the inspection
helpers.
"""

from __future__ import annotations

from repro.machine.config import CacheGeometry


class Cache:
    """One level of set-associative, LRU, block-granular cache."""

    def __init__(self, geometry: CacheGeometry, name: str = "cache") -> None:
        self.geometry = geometry
        self.name = name
        self._set_mask = geometry.num_sets - 1
        self._sets: list[list[int]] = [[] for _ in range(geometry.num_sets)]
        self.hits = 0
        self.misses = 0
        self.evictions = 0

    def flush(self) -> None:
        """Empty the cache (counters are preserved)."""
        for way in self._sets:
            way.clear()

    def resident_blocks(self) -> set[int]:
        """Set of all blocks currently resident (for tests/inspection)."""
        resident: set[int] = set()
        for way in self._sets:
            resident.update(way)
        return resident

    @property
    def accesses(self) -> int:
        """Total number of lookups."""
        return self.hits + self.misses

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"Cache({self.name}, {self.geometry.size_bytes}B/"
            f"{self.geometry.associativity}way, hits={self.hits}, misses={self.misses})"
        )
