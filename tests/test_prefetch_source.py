"""Tests for the prefetch ``source`` tag: sw / static / stride / markov.

Every ``issue_prefetch`` carries a source tag; it must reach the telemetry
``PrefetchIssued`` events, the aggregate ``PrefetchStats.by_source``
breakdown, and the per-source metrics counters — and each measurement level
must tag with exactly its own scheme.
"""

from __future__ import annotations

import pytest

from repro.bench.runner import run_level
from repro.machine.config import CacheGeometry, MachineConfig
from repro.machine.hierarchy import MemoryHierarchy
from repro.telemetry.session import TelemetrySession
from repro.telemetry.sinks import ListSink

_EXPECTED_SOURCE = {"seq": "sw", "dyn": "sw", "static": "static",
                    "stride": "stride", "markov": "markov"}


def _tiny_hierarchy():
    machine = MachineConfig(l1=CacheGeometry(512, 2), l2=CacheGeometry(4096, 4))
    return MemoryHierarchy(machine)


class TestBySourceCounters:
    def test_counts_per_source(self):
        hier = _tiny_hierarchy()
        hier.issue_prefetch(0x100, now=0, source="sw")
        hier.issue_prefetch(0x200, now=1, source="sw")
        hier.issue_prefetch(0x300, now=2, source="stride")
        assert hier.prefetch.by_source == {"sw": 2, "stride": 1}

    def test_redundant_prefetches_still_tagged(self):
        hier = _tiny_hierarchy()
        hier.issue_prefetch(0x100, now=0, source="markov")
        hier.issue_prefetch(0x100, now=1, source="markov")  # already resident
        assert hier.prefetch.by_source == {"markov": 2}
        assert hier.prefetch.by_source["markov"] == hier.prefetch.issued

    def test_default_source_is_sw(self):
        hier = _tiny_hierarchy()
        hier.issue_prefetch(0x100, now=0)
        assert hier.prefetch.by_source == {"sw": 1}


@pytest.mark.parametrize("level", sorted(_EXPECTED_SOURCE))
def test_levels_tag_with_their_own_scheme(level):
    sink = ListSink()
    session = TelemetrySession(sinks=[sink], prefetch_sample_every=1, miss_sample_every=1)
    result = run_level("vortex", level, passes=2, telemetry=session)
    stats = result.hierarchy.prefetch
    assert stats.issued > 0, f"{level} should issue prefetches"
    expected = _EXPECTED_SOURCE[level]
    # All issues carry exactly the level's source tag ...
    assert stats.by_source == {expected: stats.issued}
    # ... the telemetry events agree ...
    sources = {e.source for e in sink.events if e.kind == "PrefetchIssued"}
    assert sources == {expected}
    # ... and the per-source metrics counter reconciles.
    assert result.metrics["counters"][f"prefetch.issued.{expected}"] == stats.issued


def test_levels_without_prefetching_have_empty_breakdown():
    result = run_level("vortex", "nopref", passes=2)
    assert result.hierarchy.prefetch.issued == 0
    assert result.hierarchy.prefetch.by_source == {}
