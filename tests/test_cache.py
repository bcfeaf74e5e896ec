"""Tests for the result cache tiers: the in-memory LRU tier (eviction
order, counter exactness), the tiered cache (write-through,
promotion), file-store overwrites, the record log under torn tails and
concurrent writers, compaction, and the ``repro cache`` command."""

import json

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


def _put(cache, key, **fields):
    """Write one record; the log order is the write order."""
    cache.put(key, {"key": key, "status": "ok", **fields})


class TestCacheCompaction:
    def test_compaction_evicts_oldest_write_first(self, tmp_path):
        cache = ResultCache(str(tmp_path))
        for i in range(6):
            _put(cache, f"key-{i}")
        _put(cache, "key-0")  # newest now
        report = compact_cache(cache, max_entries=3)
        assert report["entries_after"] == 3
        assert report["evicted_keys"] == ["key-1", "key-2", "key-3"]
        assert cache.get("key-0") is not None
        assert cache.get("key-1") is None
        assert len(cache) == 3

    def test_compaction_by_bytes(self, tmp_path):
        cache = ResultCache(str(tmp_path))
        for i in range(8):
            _put(cache, f"key-{i}", pad="x" * 64)
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
            _put(cache, f"k{i}")
        argv = ["cache", "compact", "--cache-dir", str(tmp_path), "--json"]
        assert main(argv + ["--max-entries", "4"]) == 0
        assert json.loads(capsys.readouterr().out)["evicted"] == 0
        cache.put("k0", {"key": "k0", "status": "ok", "v": 2})
        assert main(argv + ["--max-entries", "3"]) == 0
        report = json.loads(capsys.readouterr().out)
        assert report["evicted_keys"] == ["k1"]
        assert cache.get("k0")["v"] == 2
        assert sorted(cache.keys()) == ["k0", "k2", "k3"]

    def test_compaction_drops_dead_lines(self, tmp_path):
        cache = ResultCache(str(tmp_path))
        for i in range(3):
            _put(cache, "k", v=i)
        _put(cache, "gone")
        cache.delete("gone")
        stats = cache.stats()
        assert stats["entries"] == 1
        assert stats["log_bytes"] > stats["bytes"]
        report = compact_cache(cache)
        assert report["evicted"] == 0
        assert report["bytes_after"] == stats["bytes"]
        assert cache.get("k")["v"] == 2
        live = cache.stats()
        # what is left is the one record and its "\nk\t" framing
        assert live["log_bytes"] == live["bytes"] + len("\nk\t")

    def test_compaction_beside_a_writer_loses_no_put(self, tmp_path):
        import threading

        cache = ResultCache(str(tmp_path))
        done = []

        def writer():
            for i in range(300):
                _put(cache, f"w{i}", i=i)
                done.append(f"w{i}")

        thread = threading.Thread(target=writer)
        thread.start()
        compactions = 0
        while thread.is_alive() or compactions == 0:
            compact_cache(ResultCache(str(tmp_path)), max_entries=10**6)
            compactions += 1
        thread.join()
        fresh = ResultCache(str(tmp_path))
        assert len(done) == 300
        assert sorted(fresh.keys()) == sorted(done)
        for key in done:
            assert fresh.get(key)["i"] == int(key[1:])


def _append_records(root, writer, count):
    """One process's share of a concurrent-append run."""
    cache = ResultCache(root)
    for i in range(count):
        cache.put(f"p{writer}-{i}", {"key": f"p{writer}-{i}",
                                     "status": "ok", "pad": "y" * i})


class TestRecordLog:
    def test_truncated_record_is_a_miss_and_later_appends_read(self,
                                                              tmp_path):
        cache = ResultCache(str(tmp_path))
        _put(cache, "a")
        _put(cache, "b", pad="z" * 40)
        log = cache.log_path.read_bytes()
        cache.log_path.write_bytes(log[:-20])  # cut inside b's record
        fresh = ResultCache(str(tmp_path))
        assert fresh.get("b") is None
        assert fresh.get("a") == {"key": "a", "status": "ok"}
        _put(ResultCache(str(tmp_path)), "c", pad="w" * 10)
        reader = ResultCache(str(tmp_path))
        assert reader.get("c") == {"key": "c", "status": "ok",
                                   "pad": "w" * 10}
        assert reader.get("b") is None
        # the instance that read the truncated log sees the append too
        assert fresh.get("c")["pad"] == "w" * 10

    def test_scan_carries_records_across_chunks(self, tmp_path,
                                                monkeypatch):
        import repro.engine.cache as cache_module

        writer = ResultCache(str(tmp_path))
        for i in range(40):
            _put(writer, f"k{i % 25}", pad="v" * (i * 3 % 50))
        writer.delete("k3")
        monkeypatch.setattr(cache_module, "_CHUNK", 16)
        fresh = ResultCache(str(tmp_path))
        assert sorted(fresh.keys()) == sorted(writer.keys())
        for key in writer.keys():
            assert fresh.get(key) == writer.get(key)
        assert fresh.get("k3") is None

    def test_concurrent_processes_append_whole_records(self, tmp_path):
        import multiprocessing

        ctx = multiprocessing.get_context("fork")
        writers = [ctx.Process(target=_append_records,
                               args=(str(tmp_path), w, 100))
                   for w in range(4)]
        for process in writers:
            process.start()
        for process in writers:
            process.join()
        assert [p.exitcode for p in writers] == [0] * 4
        fresh = ResultCache(str(tmp_path))
        assert len(fresh) == 400
        for w in range(4):
            for i in range(100):
                assert fresh.get(f"p{w}-{i}") == {
                    "key": f"p{w}-{i}", "status": "ok", "pad": "y" * i}

    def test_verification_upgrade_is_what_another_instance_reads(
            self, tmp_path):
        writer = ResultCache(str(tmp_path))
        reader = ResultCache(str(tmp_path))
        record = {"key": "k", "status": "ok", "payload": {"w": 3}}
        writer.put("k", record)
        assert reader.get("k") == record
        upgraded = {**record, "verification": {"status": "certified"}}
        assert writer.put("k", upgraded) is True
        assert reader.get("k") == upgraded
        assert ResultCache(str(tmp_path)).get("k") == upgraded

    def test_delete_is_seen_by_another_instance(self, tmp_path):
        writer = ResultCache(str(tmp_path))
        reader = ResultCache(str(tmp_path))
        _put(writer, "k")
        _put(writer, "other")
        assert reader.get("k") is not None
        assert writer.delete("k")
        assert reader.get("k") is None
        assert sorted(reader.keys()) == ["other"]
        assert ResultCache(str(tmp_path)).get("k") is None
        assert not reader.delete("k")

    def test_key_directory_costs_under_130_bytes_per_key(self, tmp_path):
        import tracemalloc

        writer = ResultCache(str(tmp_path))
        for i in range(5000):
            _put(writer, f"{i * 7919:016x}")
        tracemalloc.start()
        try:
            fresh = ResultCache(str(tmp_path))
            assert len(fresh) == 5000  # the first use scans the log
            held, _peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert held / 5000 <= 130

    def test_opening_an_instance_touches_no_file(self, tmp_path):
        cache = ResultCache(str(tmp_path / "absent"))
        assert cache.get("k") is None and len(cache) == 0
        assert not (tmp_path / "absent").exists()
        assert compact_cache(cache)["entries_before"] == 0
        assert not (tmp_path / "absent").exists()


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
        assert report["log_bytes"] > report["bytes"] > 0

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
