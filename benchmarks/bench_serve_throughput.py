"""S1 — serving throughput: pool dispatch vs the result cache.

The serving layer (:mod:`repro.serve`) runs each request as one
dispatch on a persistent worker pool, and its **content-addressed
cache** answers repeats without touching a worker at all.  This bench
regenerates that effect as a table: closed-loop load through a real
service on an ephemeral port with one persistent subprocess worker,
under two configurations:

* ``unbatched``     — no cache: every request pays its own pool
  dispatch (the baseline);
* ``cached replay`` — the same load replayed against a warm cache:
  every request is a cache hit.

The tracer report attached alongside shows the serving counters
(``serve.requests``, ``serve.cache_hit``) behind the table.

The second table is the **shard scaling curve**: the same closed-loop
client driven through a :class:`repro.serve.router.Router` fronting
1/2/4/8 one-worker shards, on two workloads that saturate different
resources:

* ``capacity`` — fixed-duration tasks (the ``sleep`` fault generator):
  each shard's single pool worker holds exactly one task at a time, so
  deliverable throughput is ``shards / task_seconds`` independent of
  host CPUs.  This is the pure routing/fan-out gate: 2 shards must
  beat 1.4x a single shard and 4 shards must beat 2x, and the p99
  queueing delay must *fall* as shards absorb the offered load.
* ``compute`` — real coalescing work (``pressure``/``briggs``), which
  can only scale with physical cores; the gate scales its expectation
  by ``os.cpu_count()`` so the curve is honest on a laptop and strict
  on a many-core runner, and saturation (the knee where adding shards
  stops paying) is recorded instead of asserted away.

The measured curve is written to ``artifacts/serve_scaling.json`` so
the repository carries the trajectory alongside the kernel snapshots.
"""

import asyncio
import json
import os
import shutil
import tempfile
from pathlib import Path

from conftest import attach_tracer, emit
from repro.serve import (
    LoadConfig,
    Router,
    RouterConfig,
    ServeConfig,
    Service,
    run_load,
)

REQUESTS = 96
CONCURRENCY = 8
K = 6
ROUNDS = 5

SCALE_SHARDS = (1, 2, 4, 8)
SCALE_REQUESTS = 64
SCALE_CONCURRENCY = 16
SLEEP_SECONDS = 0.02
ARTIFACT = Path(__file__).resolve().parent.parent / "artifacts" \
    / "serve_scaling.json"


async def _measure(cache_dir, passes=1):
    """Start a one-worker service, run ``passes`` closed-loop load
    passes, and return the last pass's report plus the tracer."""
    service = Service(ServeConfig(port=0, workers=1, cache_dir=cache_dir))
    port = await service.start()
    try:
        report = None
        for index in range(passes):
            config = LoadConfig(
                url=f"http://127.0.0.1:{port}",
                requests=REQUESTS,
                concurrency=CONCURRENCY,
                generator="pressure",
                strategy="briggs",
                k=K,
                params={"rounds": ROUNDS},
            )
            report = await run_load(config)
            assert report["transport_errors"] == 0, f"pass {index}"
            assert report["http_statuses"] == {"200": REQUESTS}, \
                f"pass {index}"
        return report, service.tracer
    finally:
        await service.stop()


def _row(label, report):
    return [
        label,
        report["throughput_rps"],
        report["latency_ms"]["p50"],
        report["latency_ms"]["p99"],
        report["cache_hits"],
    ]


async def _start_cluster(shards):
    """In-process shards behind an in-process router.

    Each shard is a full one-worker service (its pool worker is a real
    subprocess, so compute parallelism is genuine); only the asyncio
    front ends share this event loop.  Caching is off so every request
    pays the full dispatch path.
    """
    services = []
    urls = []
    for _ in range(shards):
        service = Service(ServeConfig(
            port=0, workers=1, cache_dir=None,
            heavy_queue=4 * SCALE_CONCURRENCY,
            heavy_concurrency=SCALE_CONCURRENCY,
            light_queue=4 * SCALE_CONCURRENCY,
            light_concurrency=SCALE_CONCURRENCY,
        ))
        port = await service.start()
        services.append(service)
        urls.append(f"http://127.0.0.1:{port}")
    router = Router(RouterConfig(shards=urls, port=0))
    port = await router.start()
    return router, services, f"http://127.0.0.1:{port}"


async def _scale_point(shards, generator, strategy, params):
    """One point of the scaling curve: closed-loop load through a
    router over ``shards`` one-worker services."""
    router, services, url = await _start_cluster(shards)
    try:
        report = await run_load(LoadConfig(
            url=url,
            requests=SCALE_REQUESTS,
            concurrency=SCALE_CONCURRENCY,
            generator=generator,
            strategy=strategy,
            k=K,
            params=params,
        ))
        assert report["transport_errors"] == 0, report
        assert report["http_statuses"] == {"200": SCALE_REQUESTS}, report
        return {
            "shards": shards,
            "throughput_rps": report["throughput_rps"],
            "p50_ms": report["latency_ms"]["p50"],
            "p99_ms": report["latency_ms"]["p99"],
        }
    finally:
        await router.stop()
        for service in services:
            await service.stop()


def _saturation(points):
    """The smallest shard count after which adding shards stops paying
    (improvement below 15%); the last point when the curve never bends."""
    for prev, point in zip(points, points[1:]):
        if point["throughput_rps"] < 1.15 * prev["throughput_rps"]:
            return prev["shards"]
    return points[-1]["shards"]


def test_serve_shard_scaling(benchmark):
    capacity = [
        asyncio.run(_scale_point(
            n, "sleep", "brute", {"seconds": SLEEP_SECONDS}
        ))
        for n in SCALE_SHARDS
    ]
    compute = [
        asyncio.run(_scale_point(
            n, "pressure", "briggs", {"rounds": ROUNDS}
        ))
        for n in SCALE_SHARDS
    ]
    by_shards = {p["shards"]: p for p in capacity}

    # the scaling gate: fixed-duration tasks must fan out with shard
    # count regardless of host CPUs (each shard contributes exactly one
    # task-slot of capacity)
    base = by_shards[1]["throughput_rps"]
    assert by_shards[2]["throughput_rps"] >= 1.4 * base, capacity
    assert by_shards[4]["throughput_rps"] >= 2.0 * base, capacity
    # ...and absorbing the same offered load with more shards must cut
    # tail queueing delay, not just mean throughput
    assert by_shards[4]["p99_ms"] <= by_shards[1]["p99_ms"], capacity

    # compute work can only scale with physical cores: expect the
    # core-limited fraction of ideal, and no collapse past saturation
    cores = os.cpu_count() or 1
    compute_base = compute[0]["throughput_rps"]
    for point in compute[1:]:
        expected = min(point["shards"], cores)
        assert point["throughput_rps"] >= 0.45 * expected * compute_base, \
            (compute, cores)
        assert point["throughput_rps"] >= 0.5 * compute_base, \
            (compute, cores)

    ARTIFACT.parent.mkdir(parents=True, exist_ok=True)
    with open(ARTIFACT, "w") as stream:
        json.dump({
            "schema_version": 1,
            "cpu_count": cores,
            "requests": SCALE_REQUESTS,
            "concurrency": SCALE_CONCURRENCY,
            "sleep_seconds": SLEEP_SECONDS,
            "curves": {"capacity": capacity, "compute": compute},
            "saturation_shards": {
                "capacity": _saturation(capacity),
                "compute": _saturation(compute),
            },
        }, stream, indent=2, sort_keys=True)
        stream.write("\n")

    benchmark(lambda: asyncio.run(_scale_point(
        2, "sleep", "brute", {"seconds": SLEEP_SECONDS}
    )))
    emit(
        benchmark,
        "S2: shard scaling — closed-loop load through the consistent-"
        f"hash router ({SCALE_REQUESTS} requests, concurrency "
        f"{SCALE_CONCURRENCY}, 1 worker/shard, {os.cpu_count()} host "
        "cpu(s))",
        ["shards", "capacity rps", "capacity p99 ms",
         "compute rps", "compute p99 ms"],
        [
            [str(cap["shards"]), cap["throughput_rps"], cap["p99_ms"],
             comp["throughput_rps"], comp["p99_ms"]]
            for cap, comp in zip(capacity, compute)
        ],
    )


def test_serve_throughput(benchmark):
    cache_root = tempfile.mkdtemp(prefix="bench-serve-")
    try:
        unbatched, tracer = asyncio.run(_measure(None))
        cached, cached_tracer = asyncio.run(
            _measure(cache_root, passes=2)
        )
        assert cached["cache_hits"] == REQUESTS

        benchmark(lambda: asyncio.run(_measure(None)))
        emit(
            benchmark,
            "S1: serving throughput — pool dispatch vs warm cache "
            f"({REQUESTS} requests, concurrency {CONCURRENCY}, 1 worker)",
            ["configuration", "rps", "p50 ms", "p99 ms", "cache hits"],
            [
                _row("unbatched", unbatched),
                _row("cached replay", cached),
            ],
        )
        attach_tracer(benchmark, [tracer, cached_tracer], "serve-tracer")
    finally:
        shutil.rmtree(cache_root, ignore_errors=True)
