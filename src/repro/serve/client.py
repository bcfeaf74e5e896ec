"""Load generator and client helpers for the serving API.

``repro client`` drives a running ``repro serve`` instance and reports
what the service actually delivered: throughput, latency percentiles,
cache hits, and every backpressure response it
received.  Two load models:

* **closed loop** (default) — ``concurrency`` virtual clients each
  hold one keep-alive connection and issue their next request as soon
  as the previous response lands; offered load adapts to service
  speed, which is the right model for saturation measurements;
* **open loop** — requests start on a fixed schedule (``rate`` per
  second) regardless of completions, the right model for latency under
  a given arrival rate; responses slower than the schedule pile up
  concurrently exactly as real traffic would.

Each request is a task from a deterministic seed cycle
(``seed_base + i % distinct_seeds``), so replaying the same
command against a warm cache demonstrates content-addressed serving:
the second pass reports ``cache_hits == requests``.

Every request here — the load loops and a remote campaign's
dispatches — goes through one keep-alive client,
:class:`HttpClient`, over the same minimal HTTP codec as the server
(:mod:`repro.serve.http`); there is no third-party client stack.
"""

from __future__ import annotations

import asyncio
import json
import time
from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, Tuple
from urllib.parse import urlsplit

from .http import HttpError, Response, read_response, render_request

__all__ = [
    "HttpClient",
    "LoadConfig",
    "run_load",
    "request_once",
    "wait_healthy",
    "drain",
    "percentile",
]


@dataclass
class LoadConfig:
    """One load-generation run (see ``repro client --help``)."""

    url: str = "http://127.0.0.1:8080"
    requests: int = 50
    concurrency: int = 4
    mode: str = "closed"
    rate: float = 50.0
    generator: str = "pressure"
    strategy: str = "brute"
    k: int = 6
    seed_base: int = 0
    distinct_seeds: Optional[int] = None
    params: Dict[str, Any] = field(default_factory=dict)
    verify: bool = False
    deadline: Optional[float] = None
    cache_mode: str = "use"

    def __post_init__(self) -> None:
        if self.mode not in ("closed", "open"):
            raise ValueError("mode must be 'closed' or 'open'")
        if self.requests < 1:
            raise ValueError("requests must be >= 1")
        if self.concurrency < 1:
            raise ValueError("concurrency must be >= 1")
        if self.rate <= 0:
            raise ValueError("rate must be > 0")

    def task_document(self, index: int) -> Dict[str, Any]:
        """The JSON request document for the ``index``-th task."""
        distinct = self.distinct_seeds or self.requests
        document: Dict[str, Any] = {
            "task": {
                "generator": self.generator,
                "seed": self.seed_base + (index % distinct),
                "k": self.k,
                "strategy": self.strategy,
                "params": dict(self.params),
            },
        }
        if self.verify:
            document["verify"] = True
        if self.deadline is not None:
            document["deadline"] = self.deadline
        if self.cache_mode != "use":
            document["cache"] = self.cache_mode
        return document


def _split_url(url: str) -> Tuple[str, int]:
    """Host/port of an ``http://`` URL (the only scheme supported)."""
    parts = urlsplit(url)
    if parts.scheme not in ("", "http"):
        raise ValueError(f"only http:// URLs are supported, got {url!r}")
    host = parts.hostname or "127.0.0.1"
    port = parts.port or 80
    return host, port


class HttpClient:
    """A keep-alive connection pool to one service (every client here).

    :meth:`request` borrows a pooled connection (opening one when none
    is free), sends, reads, and returns the connection to the pool.  A
    failure on a *pooled* connection is retried once on a fresh one,
    which absorbs a server that closed an idle connection or restarted
    between requests; a failure on a fresh connection is not retried.
    Every connection-level fault — refused, reset, closed mid-response,
    a malformed head — raises :exc:`ConnectionError`; an expired
    ``timeout`` raises :exc:`asyncio.TimeoutError`.  With
    ``pool_size=0`` no connection is kept and each request says
    ``Connection: close``.
    """

    def __init__(self, url: str, pool_size: int = 32) -> None:
        self.url = url
        self.host, self.port = _split_url(url)
        self.pool_size = pool_size
        self._free: List[Tuple[asyncio.StreamReader,
                               asyncio.StreamWriter]] = []

    async def request(
        self,
        method: str,
        path: str,
        body: bytes = b"",
        timeout: Optional[float] = None,
    ) -> Response:
        """One exchange (``timeout`` None waits for ever)."""
        pooled = self._free.pop() if self._free else None
        try:
            return await self._exchange(pooled, method, path, body, timeout)
        except ConnectionError:
            if pooled is None:
                raise
        return await self._exchange(None, method, path, body, timeout)

    async def _exchange(
        self,
        connection: Optional[Tuple[asyncio.StreamReader,
                                   asyncio.StreamWriter]],
        method: str,
        path: str,
        body: bytes,
        timeout: Optional[float],
    ) -> Response:
        """Send one request on ``connection`` (None: a new one)."""
        try:
            reader, writer = connection or await asyncio.open_connection(
                self.host, self.port
            )
        except OSError as exc:
            raise ConnectionError(
                f"{self.url} unreachable: {str(exc) or type(exc).__name__}"
            ) from exc
        try:
            writer.write(render_request(
                method, path, body, host=self.host,
                keep_alive=self.pool_size > 0,
            ))
            await writer.drain()
            response = await asyncio.wait_for(read_response(reader), timeout)
        except asyncio.TimeoutError:  # before OSError: one on 3.11+
            writer.close()
            raise
        except (OSError, HttpError) as exc:
            writer.close()
            raise ConnectionError(
                f"{self.url}: {str(exc) or type(exc).__name__}"
            ) from exc
        if response is None:
            writer.close()
            raise ConnectionError(f"{self.url}: closed mid-response")
        if (len(self._free) < self.pool_size
                and response.headers.get("connection") != "close"):
            self._free.append((reader, writer))
        else:
            writer.close()
        return response

    async def close(self) -> None:
        """Close every pooled connection."""
        while self._free:
            _reader, writer = self._free.pop()
            writer.close()
            try:
                await writer.wait_closed()
            except OSError:
                pass


async def request_once(
    url: str,
    method: str,
    path: str,
    payload: Optional[Any] = None,
    timeout: float = 60.0,
) -> Response:
    """One request on a fresh connection, closed after the response.

    Transport faults raise :exc:`ConnectionError` (see
    :class:`HttpClient`)."""
    body = b"" if payload is None else json.dumps(payload).encode()
    return await HttpClient(url, pool_size=0).request(
        method, path, body, timeout=timeout
    )


async def wait_healthy(
    url: str, timeout: float = 10.0, interval: float = 0.1
) -> Dict[str, Any]:
    """Poll ``/healthz`` until the service answers 200, or time out."""
    deadline = time.monotonic() + timeout
    last_error = "no attempt made"
    while time.monotonic() < deadline:
        try:
            response = await request_once(url, "GET", "/healthz",
                                          timeout=interval + 2.0)
            if response.status == 200:
                return response.json()
            last_error = f"healthz returned {response.status}"
        except (OSError, HttpError, asyncio.TimeoutError) as exc:
            last_error = str(exc) or type(exc).__name__
        await asyncio.sleep(interval)
    raise TimeoutError(f"service at {url} not healthy: {last_error}")


async def drain(url: str, timeout: float = 60.0) -> Dict[str, Any]:
    """POST ``/drain`` and return the drain report."""
    response = await request_once(url, "POST", "/drain", timeout=timeout)
    return response.json()


def percentile(sorted_values: List[float], q: float) -> float:
    """The q-quantile (0..1) of an ascending list (nearest-rank)."""
    if not sorted_values:
        return 0.0
    index = min(len(sorted_values) - 1,
                max(0, int(q * len(sorted_values))))
    return sorted_values[index]


class _Collector:
    """Accumulates per-request outcomes during a load run."""

    def __init__(self) -> None:
        self.latencies: List[float] = []
        self.http_statuses: Dict[str, int] = {}
        self.record_statuses: Dict[str, int] = {}
        self.cache_hits = 0
        self.transport_errors = 0

    def note(self, status: int, document: Any, seconds: float) -> None:
        """Record one completed HTTP exchange."""
        self.latencies.append(seconds)
        self.http_statuses[str(status)] = (
            self.http_statuses.get(str(status), 0) + 1
        )
        if isinstance(document, dict):
            record = document.get("record") or {}
            served = document.get("served") or {}
            record_status = record.get("status")
            if record_status:
                self.record_statuses[record_status] = (
                    self.record_statuses.get(record_status, 0) + 1
                )
            if served.get("cache") == "hit":
                self.cache_hits += 1

    def note_transport_error(self) -> None:
        """Record a connection-level failure (no HTTP response)."""
        self.transport_errors += 1


async def _closed_loop(
    config: LoadConfig, collector: _Collector
) -> None:
    """``concurrency`` clients, each sequential on one connection."""
    client = HttpClient(config.url, pool_size=config.concurrency)
    indices = iter(range(config.requests))

    async def worker() -> None:
        for index in indices:
            body = json.dumps(config.task_document(index)).encode()
            t0 = time.monotonic()
            try:
                response = await client.request("POST", "/v1/task", body)
                collector.note(response.status, response.json(),
                               time.monotonic() - t0)
            except (ConnectionError, HttpError):
                collector.note_transport_error()

    try:
        await asyncio.gather(
            *[worker() for _ in range(config.concurrency)]
        )
    finally:
        await client.close()


async def _open_loop(
    config: LoadConfig, collector: _Collector
) -> None:
    """Fixed arrival schedule; each request on its own connection."""
    start = time.monotonic()

    async def one(index: int) -> None:
        target = start + index / config.rate
        delay = target - time.monotonic()
        if delay > 0:
            await asyncio.sleep(delay)
        t0 = time.monotonic()
        try:
            response = await request_once(
                config.url, "POST", "/v1/task",
                config.task_document(index),
            )
            collector.note(response.status, response.json(),
                           time.monotonic() - t0)
        except (OSError, HttpError, asyncio.TimeoutError):
            collector.note_transport_error()

    await asyncio.gather(*[one(i) for i in range(config.requests)])


async def run_load(config: LoadConfig) -> Dict[str, Any]:
    """Execute one load run and return the JSON-serializable report."""
    collector = _Collector()
    t0 = time.monotonic()
    if config.mode == "closed":
        await _closed_loop(config, collector)
    else:
        await _open_loop(config, collector)
    wall = time.monotonic() - t0
    latencies = sorted(collector.latencies)
    completed = len(latencies)
    report: Dict[str, Any] = {
        "mode": config.mode,
        "url": config.url,
        "requests": config.requests,
        "concurrency": config.concurrency,
        "completed": completed,
        "transport_errors": collector.transport_errors,
        "wall_seconds": round(wall, 6),
        "throughput_rps": round(completed / wall, 3) if wall > 0 else 0.0,
        "http_statuses": dict(sorted(collector.http_statuses.items())),
        "record_statuses": dict(sorted(collector.record_statuses.items())),
        "cache_hits": collector.cache_hits,
        "latency_ms": {
            "mean": round(
                sum(latencies) * 1e3 / completed, 3
            ) if completed else 0.0,
            "p50": round(percentile(latencies, 0.50) * 1e3, 3),
            "p90": round(percentile(latencies, 0.90) * 1e3, 3),
            "p99": round(percentile(latencies, 0.99) * 1e3, 3),
            "max": round(latencies[-1] * 1e3, 3) if latencies else 0.0,
        },
    }
    if config.mode == "open":
        report["offered_rate_rps"] = config.rate
    return report
