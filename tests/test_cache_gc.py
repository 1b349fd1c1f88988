"""``ResultStore.gc`` bounds and the generic payload API."""

import os
import time

import pytest

from repro.engine.cache import ResultStore
from repro.errors import ConfigError


def _seed_entries(store, count, size=1000, mtime=None):
    """Write ``count`` payload entries of roughly ``size`` bytes each."""
    paths = []
    for i in range(count):
        fp = f"{i:02d}" + "ab" * 31
        path = store.store_payload(fp, "test", {"blob": "x" * size})
        if mtime is not None:
            os.utime(path, (mtime, mtime))
        paths.append(path)
    return paths


class TestPayloadApi:
    def test_payload_roundtrip(self, tmp_path):
        store = ResultStore(tmp_path)
        payload = {"hello": [1, 2, 3]}
        store.store_payload("ff" * 32, "tenancy", payload)
        assert store.load_payload("ff" * 32, "tenancy") == payload
        assert store.hits == 1 and store.stored == 1

    def test_kind_mismatch_is_a_miss(self, tmp_path):
        store = ResultStore(tmp_path)
        store.store_payload("ff" * 32, "tenancy", {"a": 1})
        assert store.load_payload("ff" * 32, "other-kind") is None
        assert store.misses == 1

    def test_corrupt_payload_is_a_miss(self, tmp_path):
        store = ResultStore(tmp_path)
        path = store.store_payload("ff" * 32, "tenancy", {"a": 1})
        path.write_text("{not json")
        assert store.load_payload("ff" * 32, "tenancy") is None


class TestGc:
    def test_gc_requires_a_bound(self, tmp_path):
        with pytest.raises(ConfigError, match="max-age-days"):
            ResultStore(tmp_path).gc()

    def test_age_bound_evicts_only_old_entries(self, tmp_path):
        store = ResultStore(tmp_path)
        now = time.time()
        _seed_entries(store, 3, mtime=now - 10 * 86400)  # 10 days old
        fresh = store.store_payload("aa" * 32, "test", {"new": True})
        report = store.gc(max_age_days=7, now=now)
        assert report["evicted"] == 3
        assert report["entries"] == 1
        assert fresh.exists()
        assert store.evicted == 3

    def test_size_bound_evicts_oldest_first(self, tmp_path):
        store = ResultStore(tmp_path)
        now = time.time()
        paths = _seed_entries(store, 4, size=4000)
        # Stamp strictly increasing mtimes so "oldest" is well defined.
        for i, path in enumerate(paths):
            os.utime(path, (now - 1000 + i, now - 1000 + i))
        total = sum(p.stat().st_size for p in paths)
        budget_mb = (total - 1) / (1024 * 1024)  # force at least one eviction
        report = store.gc(max_size_mb=budget_mb, now=now)
        assert report["evicted"] == 1
        assert not paths[0].exists()  # the oldest went
        assert all(p.exists() for p in paths[1:])
        assert report["bytes"] <= budget_mb * 1024 * 1024

    def test_gc_reports_and_counts_evictions(self, tmp_path):
        store = ResultStore(tmp_path)
        now = time.time()
        paths = _seed_entries(store, 2, mtime=now - 30 * 86400)
        size = sum(p.stat().st_size for p in paths)
        report = store.gc(max_age_days=1, now=now)
        assert report["evicted"] == 2 and report["bytes_freed"] == size
        assert store.evicted == 2
        assert "2 evicted" in store.summary_line()

    def test_gc_to_zero_then_stats_consistent(self, tmp_path):
        store = ResultStore(tmp_path)
        _seed_entries(store, 3)
        report = store.gc(max_size_mb=0)
        assert report["entries"] == 0 and report["bytes"] == 0
        assert store.stats()["entries"] == 0
        assert "evicted" in store.summary_line()

    def test_gc_preserves_replayability_of_survivors(self, tmp_path):
        store = ResultStore(tmp_path)
        now = time.time()
        _seed_entries(store, 2, mtime=now - 30 * 86400)
        keep_fp = "cc" * 32
        store.store_payload(keep_fp, "tenancy", {"kept": 1})
        store.gc(max_age_days=1, now=now)
        assert store.load_payload(keep_fp, "tenancy") == {"kept": 1}
