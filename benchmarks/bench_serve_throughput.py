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

Run it with
``PYTHONPATH=src python -m pytest benchmarks/bench_serve_throughput.py --benchmark-only -s``.
"""

import asyncio
import shutil
import tempfile

from conftest import attach_tracer, emit
from repro.serve import LoadConfig, ServeConfig, Service, run_load

REQUESTS = 96
CONCURRENCY = 8
K = 6
ROUNDS = 5


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
