"""Tests for the sharded serving layer and the tiered result cache:
consistent-hash ring stability and rebalancing, router end-to-end
behaviour over in-process shard services, the in-memory LRU tier
(eviction order, counter exactness, write-through, promotion), cache
compaction, remote campaign dispatch, and fault injection on the served
path (truncated cache entries, a killed shard, malformed or cut-off
replies)."""

import asyncio
import json
import os
import re
import signal
import subprocess
import sys
import threading
from pathlib import Path

import pytest

from repro.engine import (
    Campaign,
    MemoryCache,
    ResultCache,
    TieredCache,
    compact_cache,
    run_campaign,
    run_campaign_remote,
)
from repro.engine.tasks import TaskSpec, run_task, task_hash
from repro.obs import (
    CACHE_FILE_HITS,
    CACHE_FILE_MISSES,
    CACHE_MEMORY_EVICTIONS,
    CACHE_MEMORY_HITS,
    CACHE_MEMORY_MISSES,
    Tracer,
)
from repro.serve import (
    HashRing,
    LoadConfig,
    Router,
    RouterConfig,
    ServeConfig,
    Service,
    run_load,
    shard_urls,
)
from repro.serve.client import drain, request_once
from repro.serve.http import json_response, read_request, render_response

TIMEOUT = 60.0


def run(coro, timeout=TIMEOUT):
    """Drive one async test body with a hang backstop."""
    return asyncio.run(asyncio.wait_for(coro, timeout))


# ----------------------------------------------------------------------
# consistent hashing
# ----------------------------------------------------------------------
class TestHashRing:
    def test_same_key_same_shard_across_restarts(self):
        # the ring is a pure function of the shard ids: a rebuilt ring
        # (a restarted router) must route every key identically
        ids = [f"shard-{i}" for i in range(4)]
        first = HashRing(ids)
        second = HashRing(list(ids))
        for i in range(500):
            key = task_hash(TaskSpec(generator="pressure", seed=i, k=4,
                                     strategy="briggs"))
            assert first.route(key) == second.route(key)

    def test_every_shard_owns_keys(self):
        ring = HashRing([f"shard-{i}" for i in range(8)])
        counts = ring.distribution([f"key-{i}" for i in range(2000)])
        assert sum(counts.values()) == 2000
        assert all(count > 0 for count in counts.values())

    def test_rebalancing_bound_on_scale_up(self):
        # growing N -> N+1 shards must remap roughly 1/(N+1) of the
        # key space, not reshuffle it wholesale
        keys = [f"key-{i}" for i in range(4000)]
        small = HashRing([f"shard-{i}" for i in range(4)])
        grown = HashRing([f"shard-{i}" for i in range(5)])
        moved = sum(1 for k in keys if small.route(k) != grown.route(k))
        assert moved / len(keys) < 2 / 5, moved
        # every moved key must have moved *to the new shard*: keys
        # never shuffle between surviving shards
        for key in keys:
            if small.route(key) != grown.route(key):
                assert grown.route(key) == "shard-4"

    def test_rejects_bad_configurations(self):
        with pytest.raises(ValueError):
            HashRing([])
        with pytest.raises(ValueError):
            HashRing(["a", "a"])
        with pytest.raises(ValueError):
            HashRing(["a"], replicas=0)

    def test_shard_urls(self):
        assert shard_urls("127.0.0.1", 8080, 2) == [
            "http://127.0.0.1:8081", "http://127.0.0.1:8082",
        ]
        with pytest.raises(ValueError):
            shard_urls("127.0.0.1", 8080, 0)


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
# router end-to-end (in-process shards)
# ----------------------------------------------------------------------
async def _start_shards(count, **overrides):
    """``count`` inline-worker services behind a router, all on
    ephemeral ports in this event loop."""
    services = []
    urls = []
    for _ in range(count):
        service = Service(ServeConfig(
            port=0, workers=0, **overrides,
        ))
        port = await service.start()
        services.append(service)
        urls.append(f"http://127.0.0.1:{port}")
    router = Router(RouterConfig(shards=urls, port=0))
    port = await router.start()
    return router, services, f"http://127.0.0.1:{port}"


async def _stop_all(router, services):
    await router.stop()
    for service in services:
        await service.stop()


def _task_document(seed, generator="pressure", strategy="briggs"):
    return {"task": {"generator": generator, "seed": seed, "k": 4,
                     "strategy": strategy, "params": {"rounds": 3}}}


class TestRouter:
    def test_routes_and_annotates_shard(self):
        async def body():
            router, services, url = await _start_shards(2)
            try:
                document = (await request_once(
                    url, "POST", "/v1/task", _task_document(0)
                )).json()
                assert document["record"]["status"] == "ok"
                shard = document["served"]["shard"]
                assert shard in ("shard-0", "shard-1")
                # the same key must land on the same shard every time
                for _ in range(3):
                    repeat = (await request_once(
                        url, "POST", "/v1/task", _task_document(0)
                    )).json()
                    assert repeat["served"]["shard"] == shard
            finally:
                await _stop_all(router, services)
        run(body())

    def test_distinct_keys_spread_over_shards(self):
        async def body():
            router, services, url = await _start_shards(2)
            try:
                report = await run_load(LoadConfig(
                    url=url, requests=32, concurrency=4,
                    generator="pressure", strategy="briggs", k=4,
                    params={"rounds": 3},
                ))
                assert report["http_statuses"] == {"200": 32}
                forwarded = [
                    router.tracer.counters.get(
                        f"router.forwarded.shard-{i}", 0)
                    for i in range(2)
                ]
                assert sum(forwarded) == 32
                assert all(count > 0 for count in forwarded)
            finally:
                await _stop_all(router, services)
        run(body())

    def test_ring_matches_observed_routing(self):
        async def body():
            router, services, url = await _start_shards(2)
            try:
                spec = TaskSpec(generator="pressure", seed=7, k=4,
                                strategy="briggs",
                                params=(("rounds", 3),))
                expected = router.ring.route(task_hash(spec))
                document = (await request_once(
                    url, "POST", "/v1/task", _task_document(7)
                )).json()
                assert document["served"]["shard"] == expected
            finally:
                await _stop_all(router, services)
        run(body())

    def test_healthz_aggregates_shards(self):
        async def body():
            router, services, url = await _start_shards(2)
            try:
                response = await request_once(url, "GET", "/healthz")
                assert response.status == 200
                payload = response.json()
                assert payload["healthy_shards"] == 2
                assert payload["total_shards"] == 2
                assert set(payload["shards"]) == {"shard-0", "shard-1"}

                inventory = (await request_once(
                    url, "GET", "/shards")).json()
                assert [s["id"] for s in inventory["shards"]] == [
                    "shard-0", "shard-1"]
            finally:
                await _stop_all(router, services)
        run(body())

    def test_healthz_degrades_when_a_shard_dies(self):
        async def body():
            router, services, url = await _start_shards(2)
            try:
                await services[1].stop()
                response = await request_once(url, "GET", "/healthz")
                assert response.status == 503
                payload = response.json()
                assert payload["status"] == "degraded"
                assert payload["healthy_shards"] == 1
            finally:
                await router.stop()
                await services[0].stop()
        run(body())

    def test_unreachable_shard_is_503_not_crash(self):
        async def body():
            router, services, url = await _start_shards(2)
            try:
                # find a seed for each shard, then kill shard-1
                seeds = {}
                for seed in range(50):
                    document = _task_document(seed)
                    spec = TaskSpec.from_dict(document["task"])
                    seeds.setdefault(router.ring.route(task_hash(spec)),
                                     seed)
                    if len(seeds) == 2:
                        break
                await services[1].stop()
                alive = await request_once(
                    url, "POST", "/v1/task",
                    _task_document(seeds["shard-0"]))
                assert alive.status == 200
                dead = await request_once(
                    url, "POST", "/v1/task",
                    _task_document(seeds["shard-1"]))
                assert dead.status == 503
                assert dead.json()["shard"] == "shard-1"
                assert router.tracer.counters["router.shard_errors"] >= 1
            finally:
                await router.stop()
                await services[0].stop()
        run(body())

    def test_drain_fans_out_and_completes(self):
        async def body():
            router, services, url = await _start_shards(2)
            try:
                report = await drain(url)
                assert report["drained"] is True
                assert set(report["shards"]) == {"shard-0", "shard-1"}
                assert all(s["drained"]
                           for s in report["shards"].values())
                # new work is refused everywhere after the drain
                refused = await request_once(
                    url, "POST", "/v1/task", _task_document(1))
                assert refused.status == 503
                await asyncio.wait_for(router.wait_drained(), 5.0)
                for service in services:
                    await asyncio.wait_for(service.wait_drained(), 5.0)
            finally:
                await _stop_all(router, services)
        run(body())

    def test_unknown_path_and_method(self):
        async def body():
            router, services, url = await _start_shards(1)
            try:
                assert (await request_once(
                    url, "GET", "/nope")).status == 404
                assert (await request_once(
                    url, "GET", "/v1/task")).status == 405
                assert (await request_once(
                    url, "POST", "/v1/task", {"task": {"generator":
                    "pressure"}})).status == 400
            finally:
                await _stop_all(router, services)
        run(body())

    def test_router_metrics_exposes_counters(self):
        async def body():
            router, services, url = await _start_shards(1)
            try:
                await request_once(url, "POST", "/v1/task",
                                   _task_document(0))
                response = await request_once(url, "GET", "/metrics")
                text = response.body.decode()
                assert "repro_router_requests_total 1" in text
                assert "repro_router_shards 1" in text
            finally:
                await _stop_all(router, services)
        run(body())


# ----------------------------------------------------------------------
# service memory tier
# ----------------------------------------------------------------------
class TestServiceMemoryTier:
    def test_second_pass_hits_memory_tier(self, tmp_path):
        async def body():
            service = Service(ServeConfig(
                port=0, workers=0,
                cache_dir=str(tmp_path), mem_entries=32,
            ))
            port = await service.start()
            url = f"http://127.0.0.1:{port}"
            try:
                first = (await request_once(
                    url, "POST", "/v1/task", _task_document(0))).json()
                assert first["served"]["cache"] == "miss"
                second = (await request_once(
                    url, "POST", "/v1/task", _task_document(0))).json()
                assert second["served"]["cache"] == "hit"
                counters = service.tracer.counters
                # the repeat was answered by the memory tier: the file
                # tier was never probed for it (write-through put the
                # record in memory on the first pass)
                assert counters[CACHE_MEMORY_HITS] == 1
                assert counters.get(CACHE_FILE_HITS, 0) == 0
                health = (await request_once(
                    url, "GET", "/healthz")).json()
                assert health["cache"]["tiers"] == ["memory", "file"]
                assert health["cache"]["memory_entries"] == 1
            finally:
                await service.stop()
        run(body())

    def test_cold_memory_tier_promotes_file_hit(self, tmp_path):
        async def body():
            # a restarted service finds the record on disk, serves it,
            # and promotes it so the next repeat is a memory hit
            spec = TaskSpec.from_dict(_task_document(3)["task"])
            warm = Service(ServeConfig(
                port=0, workers=0,
                cache_dir=str(tmp_path),
            ))
            port = await warm.start()
            url = f"http://127.0.0.1:{port}"
            try:
                await request_once(url, "POST", "/v1/task",
                                   _task_document(3))
            finally:
                await warm.stop()

            cold = Service(ServeConfig(
                port=0, workers=0,
                cache_dir=str(tmp_path),
            ))
            port = await cold.start()
            url = f"http://127.0.0.1:{port}"
            try:
                hit = (await request_once(
                    url, "POST", "/v1/task", _task_document(3))).json()
                assert hit["served"]["cache"] == "hit"
                counters = cold.tracer.counters
                assert counters[CACHE_FILE_HITS] == 1
                assert cold.cache.get_memory(task_hash(spec)) is not None
            finally:
                await cold.stop()
        run(body())


# ----------------------------------------------------------------------
# remote campaign dispatch
# ----------------------------------------------------------------------
def _serve_in_thread(config):
    """Run a service's event loop in a daemon thread; returns (url,
    thread).  The thread exits when the service is drained."""
    box = {}
    started = threading.Event()

    def runner():
        async def main():
            service = Service(config)
            box["port"] = await service.start()
            started.set()
            await service.serve_until_drained()
        asyncio.run(main())

    thread = threading.Thread(target=runner, daemon=True)
    thread.start()
    assert started.wait(TIMEOUT), "service failed to start"
    return f"http://127.0.0.1:{box['port']}", thread


class TestRemoteCampaign:
    def _campaign(self):
        tasks = [
            TaskSpec(generator="pressure", seed=seed, k=4,
                     strategy=strategy, params=(("rounds", 3),))
            for seed in range(4)
            for strategy in ("briggs", "brute")
        ]
        return Campaign(name="remote-e2e", tasks=tasks, workers=2,
                        retries=1, backoff=0.01)

    def test_remote_matches_local_result_hash(self, tmp_path):
        campaign = self._campaign()
        local = run_campaign(
            campaign, ResultCache(str(tmp_path / "local")), workers=0,
        )
        url, thread = _serve_in_thread(ServeConfig(
            port=0, workers=0,
            cache_dir=str(tmp_path / "remote"),
        ))
        try:
            first = run_campaign_remote(campaign, url, workers=2)
            second = run_campaign_remote(campaign, url, workers=2)
        finally:
            run(drain(url), timeout=10.0)
            thread.join(timeout=10.0)
        assert first["failed_tasks"] == []
        assert first["by_status"] == {"ok": len(campaign.tasks)}
        # byte-identical outcome to the in-process engine
        assert first["result_hash"] == local["result_hash"]
        # the replay is served entirely from the service's cache tiers
        assert second["cache_hits"] == len(campaign.tasks)
        assert second["served"] == {"hit": len(campaign.tasks)}
        assert second["result_hash"] == local["result_hash"]

    def test_unreachable_service_fails_tasks(self):
        campaign = self._campaign()
        campaign.retries = 0
        with pytest.raises(TimeoutError):
            run_campaign_remote(
                campaign, "http://127.0.0.1:9", workers=1, wait=0.2,
            )


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


# ----------------------------------------------------------------------
# fault injection on the served path
# ----------------------------------------------------------------------
def _fake_in_thread(answer):
    """Serve ``answer(request)`` — response bytes, or None to close the
    connection unanswered — on a loopback port from a daemon thread;
    returns (url, stop)."""
    box = {}
    started = threading.Event()

    async def handle(reader, writer):
        try:
            while True:
                request = await read_request(reader)
                reply = None if request is None else answer(request)
                if reply is None:
                    return
                writer.write(reply)
                await writer.drain()
        finally:
            writer.close()

    async def main():
        server = await asyncio.start_server(handle, "127.0.0.1", 0)
        box["port"] = server.sockets[0].getsockname()[1]
        box["loop"] = asyncio.get_running_loop()
        box["stop"] = asyncio.Event()
        started.set()
        async with server:
            await box["stop"].wait()

    thread = threading.Thread(target=lambda: asyncio.run(main()),
                              daemon=True)
    thread.start()
    assert started.wait(TIMEOUT), "fake server failed to start"

    def stop():
        box["loop"].call_soon_threadsafe(box["stop"].set)
        thread.join(TIMEOUT)

    return f"http://127.0.0.1:{box['port']}", stop


def _computed(request):
    """A well-formed ``/v1/task`` reply computed in-process."""
    record = run_task(TaskSpec.from_dict(request.json()["task"]))
    return json_response(200, {"record": record,
                               "served": {"cache": "miss"}})


def _spawn_shard():
    """A ``python -m repro serve`` shard in its own session (so its
    pool workers die with it); returns (process, url)."""
    root = Path(__file__).resolve().parent.parent
    env = dict(os.environ, PYTHONPATH=str(root / "src"))
    proc = subprocess.Popen(
        [sys.executable, "-m", "repro", "serve", "--port", "0",
         "--workers", "1", "--cache-dir", ""],
        cwd=root, env=env, stdout=subprocess.PIPE, text=True,
        start_new_session=True,
    )
    match = re.search(r"http://[^\s]+:\d+", proc.stdout.readline())
    assert match, "repro serve did not report its address"
    return proc, match.group(0)


def _seed_on(router, shard, generator="pressure", **params):
    """The first seed whose task the router places on ``shard``."""
    for seed in range(200):
        document = _task_document(seed, generator=generator)
        document["task"]["params"].update(params)
        spec = TaskSpec.from_dict(document["task"])
        if router.ring.route(task_hash(spec)) == shard:
            return document
    raise AssertionError(f"no seed lands on {shard}")


class TestServedFaults:
    def test_truncated_file_entry_is_recomputed(self, tmp_path):
        async def body():
            service = Service(ServeConfig(
                port=0, workers=0, cache_dir=str(tmp_path), mem_entries=1,
            ))
            url = f"http://127.0.0.1:{await service.start()}"
            try:
                document = _task_document(0)
                key = task_hash(TaskSpec.from_dict(document["task"]))
                first = (await request_once(
                    url, "POST", "/v1/task", document)).json()
                # a second key pushes the first out of the memory tier
                await request_once(url, "POST", "/v1/task",
                                   _task_document(1))
                assert key not in service.cache.memory
                entry = service.cache.file.path(key)
                entry.write_bytes(entry.read_bytes()[:40])

                response = await request_once(
                    url, "POST", "/v1/task", document)
                assert response.status == 200
                again = response.json()
                assert again["served"]["cache"] == "miss"
                assert again["record"]["result_hash"] == (
                    first["record"]["result_hash"])
                rewritten = ResultCache(str(tmp_path)).get(key)
                assert rewritten["result_hash"] == (
                    first["record"]["result_hash"])
            finally:
                await service.stop()
        run(body())

    def test_shard_killed_mid_request_is_an_explicit_status(self):
        proc, shard_url = _spawn_shard()

        async def body():
            service = Service(ServeConfig(port=0, workers=0))
            local_url = f"http://127.0.0.1:{await service.start()}"
            router = Router(RouterConfig(shards=[shard_url, local_url],
                                         port=0))
            url = f"http://127.0.0.1:{await router.start()}"
            try:
                sleeper = _seed_on(router, "shard-0", generator="sleep",
                                   seconds=30.0)
                pending = asyncio.ensure_future(
                    request_once(url, "POST", "/v1/task", sleeper))
                while (await request_once(shard_url, "GET", "/healthz")
                       ).json()["in_system"] == 0:
                    await asyncio.sleep(0.02)
                os.killpg(proc.pid, signal.SIGKILL)
                response = await pending
                assert response.status in (503, 504)
                assert response.json()["shard"] == "shard-0"
                alive = await request_once(
                    url, "POST", "/v1/task", _seed_on(router, "shard-1"))
                assert alive.status == 200
            finally:
                await router.stop()
                await service.stop()

        try:
            run(body())
        finally:
            if proc.poll() is None:
                os.killpg(proc.pid, signal.SIGKILL)
            proc.wait(TIMEOUT)
            proc.stdout.close()

    def test_non_json_reply_fails_only_its_task(self):
        tasks = [TaskSpec(generator="pressure", seed=seed, k=4,
                          strategy="briggs", params=(("rounds", 3),))
                 for seed in range(4)]
        bad = task_hash(tasks[1])

        def answer(request):
            if request.path == "/healthz":
                return json_response(200, {"status": "ok"})
            if task_hash(TaskSpec.from_dict(request.json()["task"])) == bad:
                return render_response(502, b"<html>bad gateway</html>",
                                       content_type="text/html")
            return _computed(request)

        url, stop = _fake_in_thread(answer)
        try:
            summary = run_campaign_remote(
                Campaign(name="html", tasks=tasks, workers=2, retries=0),
                url,
            )
        finally:
            stop()
        assert summary["by_status"] == {"error": 1, "ok": 3}
        assert summary["failed_tasks"] == [bad]

    def test_client_drain_cut_off_exits_2(self, capsys):
        from repro.cli import main

        def answer(request):
            if request.path == "/healthz":
                return json_response(200, {"status": "ok"})
            if request.path == "/drain":
                return None
            return _computed(request)

        url, stop = _fake_in_thread(answer)
        try:
            code = main(["client", "--url", url, "--requests", "2",
                         "--concurrency", "1", "--strategy", "briggs",
                         "--k", "4", "--drain"])
        finally:
            stop()
        assert code == 2
        assert capsys.readouterr().err.startswith("error: ")
