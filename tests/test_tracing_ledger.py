"""Tests for repro.tracing.ledger: per-prefetch lifecycle records.

Unit tests drive the hooks directly; integration tests attach the ledger to
real runs and require exact reconciliation against the hierarchy's own
:class:`PrefetchStats` and per-stream counters at every prefetching level.
"""

from __future__ import annotations

import pytest

from repro.bench.runner import run_level
from repro.machine.hierarchy import PrefetchStats, StreamPrefetchStats
from repro.telemetry.session import TelemetrySession
from repro.telemetry.sinks import ListSink
from repro.tracing.ledger import FATES, TERMINAL_FATES, PrefetchLedger


class TestLedgerUnit:
    def test_useful_lifecycle(self):
        led = PrefetchLedger()
        led.on_issue(block=0x10, cycle=100, source="sw", stream="s", redundant=False)
        led.on_use(block=0x10, cycle=160, late=False, lead=60)
        (rec,) = led.records
        assert rec.fate == "useful"
        assert rec.lead == 60 and rec.fate_cycle == 160
        assert led.fate_counts["useful"] == 1
        assert led.open_count == 0

    def test_late_lifecycle_records_residual(self):
        led = PrefetchLedger()
        led.on_issue(block=0x20, cycle=0, source="sw", stream=None, redundant=False)
        led.on_use(block=0x20, cycle=40, late=True, lead=40, residual=60)
        (rec,) = led.records
        assert rec.fate == "late"
        assert rec.residual == 60

    def test_redundant_closes_immediately(self):
        led = PrefetchLedger()
        led.on_issue(block=0x30, cycle=5, source="sw", stream=None, redundant=True)
        (rec,) = led.records
        assert rec.fate == "redundant"
        assert led.open_count == 0

    def test_eviction_is_polluting(self):
        led = PrefetchLedger()
        led.on_issue(block=0x40, cycle=0, source="sw", stream=None, redundant=False)
        led.on_evict(block=0x40, cycle=30)
        assert led.records[0].fate == "polluting"

    def test_expiry_is_wasted(self):
        led = PrefetchLedger()
        led.on_issue(block=0x50, cycle=0, source="sw", stream=None, redundant=False)
        led.on_expire(block=0x50, cycle=99)
        assert led.records[0].fate == "wasted"

    def test_reissue_of_open_block_closes_orphan_as_wasted(self):
        led = PrefetchLedger()
        led.on_issue(block=0x60, cycle=0, source="sw", stream=None, redundant=False)
        led.on_issue(block=0x60, cycle=10, source="sw", stream=None, redundant=False)
        fates = [r.fate for r in led.records]
        assert fates == ["wasted", "inflight"]

    def test_use_without_issue_is_ignored(self):
        led = PrefetchLedger()
        led.on_use(block=0x70, cycle=10, late=False, lead=5)
        led.on_evict(block=0x70, cycle=20)
        led.on_expire(block=0x70, cycle=30)
        assert not led.records

    def test_per_stream_grouping(self):
        led = PrefetchLedger()
        for i in range(3):
            led.on_issue(block=i, cycle=i, source="sw", stream="a", redundant=False)
            led.on_use(block=i, cycle=i + 50, late=False, lead=50)
        led.on_issue(block=9, cycle=0, source="sw", stream="b", redundant=False)
        led.on_evict(block=9, cycle=5)
        per = led.per_stream()
        assert per["a"].issued == 3 and per["a"].useful == 3
        assert per["a"].accuracy == 1.0
        assert per["b"].polluting == 1 and per["b"].useful == 0

    def test_reconcile_flags_mismatch(self):
        led = PrefetchLedger()
        led.on_issue(block=1, cycle=0, source="sw", stream=None, redundant=False)
        led.on_use(block=1, cycle=10, late=False, lead=10)
        stats = PrefetchStats(issued=2, useful=1)
        mismatches = led.reconcile(stats)
        assert mismatches and any("issued" in m for m in mismatches)

    def test_reconcile_flags_per_stream_mismatch(self):
        led = PrefetchLedger()
        for block, stream in ((1, "a"), (2, "a"), (3, "b")):
            led.on_issue(block=block, cycle=0, source="sw", stream=stream, redundant=False)
            led.on_use(block=block, cycle=10, late=False, lead=10)
        stats = PrefetchStats(issued=3, useful=3)
        streams = {
            "a": StreamPrefetchStats(issued=2, useful=2),
            "b": StreamPrefetchStats(issued=1, useful=1),
        }
        assert led.reconcile(stats, streams) == []
        streams["a"].useful = 1
        assert led.reconcile(stats) == []  # the aggregate books still agree
        assert led.reconcile(stats, streams) == ["stream 'a' useful: ledger 2 != hierarchy 1"]
        del streams["b"]
        assert "ledger stream 'b' unknown to the hierarchy" in led.reconcile(stats, streams)

    def test_reconcile_flags_open_records(self):
        led = PrefetchLedger()
        led.on_issue(block=1, cycle=0, source="sw", stream=None, redundant=False)
        stats = PrefetchStats(issued=1)
        mismatches = led.reconcile(stats)
        assert any("open" in m or "inflight" in m for m in mismatches)

    def test_fate_vocabulary(self):
        assert set(TERMINAL_FATES) == {"redundant", "useful", "late", "polluting", "wasted"}
        assert set(FATES) - set(TERMINAL_FATES) == {"inflight"}


@pytest.mark.parametrize("level", ["seq", "dyn", "static", "stride", "markov"])
def test_ledger_reconciles_on_real_runs(level):
    session = TelemetrySession(
        sinks=[ListSink()],
        miss_sample_every=1,
        prefetch_sample_every=1,
        tracing=True,
        track_prefetches=True,
    )
    result = run_level("vortex", level, passes=2, telemetry=session)
    ledger = session.ledger
    stats = result.hierarchy.prefetch
    assert ledger.issued == stats.issued
    assert ledger.reconcile(stats) == []
    # Terminal fates must partition everything issued (conservation of fate).
    assert sum(ledger.fate_counts.values()) == ledger.issued
    assert ledger.fate_counts.get("inflight", 0) == 0


def test_ledger_matches_per_stream_hierarchy_counters():
    session = TelemetrySession(
        sinks=[ListSink()],
        miss_sample_every=1,
        prefetch_sample_every=1,
        tracing=True,
        track_prefetches=True,
    )
    result = run_level("vortex", "dyn", passes=2, telemetry=session)
    per = session.ledger.per_stream()
    hier = result.hierarchy.stream_stats
    assert per, "a dyn run should attribute prefetches to streams"
    for key, stats in per.items():
        assert key in hier
        assert hier[key].issued == stats.issued
        assert hier[key].useful == stats.useful
        assert hier[key].late == stats.late
        # Every attributed stream has a human-readable name for explain.
        assert key in result.hierarchy.stream_names


def test_ledger_absent_by_default():
    session = TelemetrySession(sinks=[ListSink()])
    result = run_level("vortex", "dyn", passes=2, telemetry=session)
    assert session.ledger is None
    assert result.hierarchy.ledger is None
