"""Tests for the result cache tiers: the in-memory LRU tier (eviction
order, counter exactness), the tiered cache (write-through,
promotion), file-store overwrites, compaction, and the ``repro cache``
command."""

import json
import os

import pytest

from repro.engine import MemoryCache, ResultCache, TieredCache, compact_cache
from repro.obs import (
    CACHE_FILE_HITS,
    CACHE_FILE_MISSES,
    CACHE_MEMORY_EVICTIONS,
    CACHE_MEMORY_HITS,
    CACHE_MEMORY_MISSES,
    Tracer,
)


# ----------------------------------------------------------------------
# memory tier
# ----------------------------------------------------------------------
class TestMemoryCache:
    def test_lru_eviction_order_under_pressure(self):
        cache = MemoryCache(capacity=3)
        for key in ("a", "b", "c"):
            cache.put(key, {"key": key})
        cache.get("a")  # refresh a: eviction order is now b, c, a
        cache.put("d", {"key": "d"})
        assert cache.keys() == ["c", "a", "d"]
        cache.put("e", {"key": "e"})
        assert cache.keys() == ["a", "d", "e"]
        assert cache.get("b") is None

    def test_put_refreshes_recency(self):
        cache = MemoryCache(capacity=2)
        cache.put("a", {})
        cache.put("b", {})
        cache.put("a", {"updated": True})
        cache.put("c", {})
        assert "b" not in cache
        assert cache.get("a") == {"updated": True}

    def test_counter_exactness(self):
        tracer = Tracer()
        cache = MemoryCache(capacity=2, tracer=tracer)
        cache.put("a", {})
        cache.put("b", {})
        assert cache.get("a") is not None
        assert cache.get("missing") is None
        assert cache.get("b") is not None
        cache.put("c", {})  # evicts a (refreshed order: b, a -> no: a, b)
        assert tracer.counters[CACHE_MEMORY_HITS] == 2
        assert tracer.counters[CACHE_MEMORY_MISSES] == 1
        assert tracer.counters[CACHE_MEMORY_EVICTIONS] == 1
        assert len(cache) == 2

    def test_capacity_validation(self):
        with pytest.raises(ValueError):
            MemoryCache(capacity=0)


class TestTieredCache:
    def test_file_hit_promotes_to_memory(self, tmp_path):
        tracer = Tracer()
        tiered = TieredCache(
            ResultCache(str(tmp_path)),
            MemoryCache(capacity=4, tracer=tracer),
            tracer=tracer,
        )
        record = {"key": "k1", "status": "ok"}
        tiered.file.put("k1", record)
        assert tiered.get_memory("k1") is None
        assert tiered.get("k1") == record
        assert tracer.counters[CACHE_FILE_HITS] == 1
        # promoted: the next probe never touches the file tier
        assert tiered.get_memory("k1") == record
        assert tiered.get("k1") == record
        assert tracer.counters[CACHE_FILE_HITS] == 1

    def test_put_writes_through_both_tiers(self, tmp_path):
        tiered = TieredCache(
            ResultCache(str(tmp_path)), MemoryCache(capacity=4)
        )
        record = {"key": "k1", "status": "ok"}
        assert tiered.put("k1", record) is False
        assert tiered.get_memory("k1") == record
        assert tiered.file.get("k1") == record
        assert tiered.put("k1", {**record, "v": 2}) is True

    def test_miss_counters(self, tmp_path):
        tracer = Tracer()
        tiered = TieredCache(
            ResultCache(str(tmp_path)),
            MemoryCache(capacity=4, tracer=tracer),
            tracer=tracer,
        )
        assert tiered.get("absent") is None
        assert tracer.counters[CACHE_MEMORY_MISSES] == 1
        assert tracer.counters[CACHE_FILE_MISSES] == 1

    def test_stats(self, tmp_path):
        tiered = TieredCache(
            ResultCache(str(tmp_path)), MemoryCache(capacity=7)
        )
        tiered.put("k1", {"key": "k1", "status": "ok"})
        stats = tiered.stats()
        assert stats["entries"] == 1
        assert stats["memory_entries"] == 1
        assert stats["memory_capacity"] == 7


class TestResultCacheOverwrite:
    def test_put_reports_overwrite(self, tmp_path):
        cache = ResultCache(str(tmp_path))
        assert cache.put("key", {"status": "ok"}) is False
        assert cache.put("key", {"status": "ok", "v": 2}) is True
        assert cache.put("other", {"status": "ok"}) is False


def _put_aged(cache, key, mtime, **fields):
    """Write one record and stamp its file with ``mtime``."""
    cache.put(key, {"key": key, "status": "ok", **fields})
    os.utime(cache.path(key), (mtime, mtime))


class TestCacheCompaction:
    def test_compaction_evicts_oldest_write_first(self, tmp_path):
        cache = ResultCache(str(tmp_path))
        for i in range(6):
            _put_aged(cache, f"key-{i}", 1000.0 + i)
        os.utime(cache.path("key-0"), (2000.0, 2000.0))  # newest now
        report = compact_cache(cache, max_entries=3)
        assert report["entries_after"] == 3
        assert report["evicted_keys"] == ["key-1", "key-2", "key-3"]
        assert cache.get("key-0") is not None
        assert cache.get("key-1") is None
        assert len(cache) == 3

    def test_compaction_by_bytes(self, tmp_path):
        cache = ResultCache(str(tmp_path))
        for i in range(8):
            _put_aged(cache, f"key-{i}", 1000.0 + i, pad="x" * 64)
        total = cache.stats()["bytes"]
        report = compact_cache(cache, max_bytes=total // 2)
        assert report["bytes_before"] == total
        assert report["bytes_after"] <= total // 2
        assert report["evicted"] > 0
        assert report["evicted_keys"][0] == "key-0"
        assert len(cache) == report["entries_after"]

    def test_rewritten_record_is_not_evicted(self, tmp_path, capsys):
        # a compaction must not remember recency from an earlier one:
        # rewriting k0 makes it the newest entry
        from repro.cli import main

        cache = ResultCache(str(tmp_path))
        for i in range(4):
            _put_aged(cache, f"k{i}", 1000.0 + i)
        argv = ["cache", "compact", "--cache-dir", str(tmp_path), "--json"]
        assert main(argv + ["--max-entries", "4"]) == 0
        assert json.loads(capsys.readouterr().out)["evicted"] == 0
        cache.put("k0", {"key": "k0", "status": "ok", "v": 2})
        assert main(argv + ["--max-entries", "3"]) == 0
        report = json.loads(capsys.readouterr().out)
        assert report["evicted_keys"] == ["k1"]
        assert cache.get("k0")["v"] == 2
        assert sorted(cache.keys()) == ["k0", "k2", "k3"]


# ----------------------------------------------------------------------
# CLI surface
# ----------------------------------------------------------------------
class TestCacheCli:
    def test_stats_and_compact(self, tmp_path, capsys):
        from repro.cli import main

        cache = ResultCache(str(tmp_path))
        for i in range(10):
            cache.put(f"key-{i}", {"status": "ok", "i": i})
        assert main(["cache", "stats", "--cache-dir", str(tmp_path),
                     "--json"]) == 0
        report = json.loads(capsys.readouterr().out)
        assert report["entries"] == 10

        assert main(["cache", "compact", "--cache-dir", str(tmp_path),
                     "--max-entries", "4", "--json"]) == 0
        report = json.loads(capsys.readouterr().out)
        assert report["entries_after"] == 4
        assert len(cache) == 4

    def test_compact_requires_a_bound(self, tmp_path, capsys):
        from repro.cli import main

        assert main(["cache", "compact",
                     "--cache-dir", str(tmp_path)]) == 2

    def test_missing_directory_is_an_error(self, tmp_path):
        from repro.cli import main

        assert main(["cache", "stats",
                     "--cache-dir", str(tmp_path / "absent")]) == 2

    def test_remote_flag_rejected_for_status(self, tmp_path, capsys):
        from repro.cli import main

        spec = tmp_path / "campaign.json"
        spec.write_text(json.dumps({
            "name": "x",
            "tasks": [{"generator": "pressure", "seed": 0, "k": 4,
                       "strategy": "briggs"}],
        }))
        assert main(["campaign", "status", str(spec),
                     "--remote", "http://127.0.0.1:1"]) == 2
