"""Consistent-hash shard routing and shard supervision.

``repro serve --shards N`` turns the single-process service into a
small cluster: N worker services (each a full
:class:`~repro.serve.service.Service` — admission, pool, tiered
cache) listen on ``port+1 .. port+N``, and one :class:`Router`
on the public port fans ``POST /v1/task`` across them by
**consistent-hashing the task's content address**
(:func:`repro.engine.tasks.task_hash`).

Hashing on the content address gives three properties for free:

* **cache affinity** — a task key always lands on the same shard, so
  each shard's in-memory LRU tier sees *all* repeats
  of their key subset instead of 1/N of them;
* **restart stability** — the ring is derived purely from the shard
  ids, so the same spec routes to the same shard across router
  restarts (no routing state to persist);
* **bounded rebalancing** — growing N shards to N+1 remaps only
  ~1/(N+1) of the key space (the classic consistent-hashing bound),
  so a scale-up does not cold-start every cache.

The router holds a small keep-alive connection pool per shard
(:class:`~repro.serve.client.HttpClient`), aggregates ``/healthz``
across shards, exposes its own counters on ``/metrics`` plus a
``/shards`` inventory, and ``POST /drain`` drains **every shard
first** (each finishes its in-flight work) before the router itself
reports drained.

:class:`ShardSupervisor` owns the worker processes for the CLI mode:
it spawns each shard as a ``python -m repro serve`` subprocess, waits
for health, restarts shards that die outside a drain, and reaps them
after the drain.  Tests drive :class:`Router` directly against
in-process services instead.
"""

from __future__ import annotations

import asyncio
import bisect
import hashlib
import sys
import time
from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, Sequence, Tuple

from ..obs import Tracer
from .client import HttpClient, wait_healthy
from .http import (
    DEFAULT_MAX_BODY,
    HttpError,
    HttpServer,
    Request,
    Response,
    json_response,
)
from .protocol import parse_task_request

__all__ = [
    "HashRing",
    "RouterConfig",
    "Router",
    "ShardSupervisor",
    "serve_sharded",
    "shard_urls",
]


class HashRing:
    """A consistent-hash ring over named shards.

    Each shard contributes ``replicas`` points at
    ``sha256(f"{shard}:{i}")``; a key routes to the first point at or
    after its own hash (wrapping around).  Both sides use SHA-256, so
    placement is identical on every host and across restarts —
    :meth:`route` is a pure function of ``(shard ids, key)``.
    """

    def __init__(self, shards: Sequence[str], replicas: int = 64) -> None:
        if not shards:
            raise ValueError("HashRing needs at least one shard")
        if len(set(shards)) != len(shards):
            raise ValueError("shard ids must be unique")
        if replicas < 1:
            raise ValueError("replicas must be >= 1")
        self.shards = list(shards)
        self.replicas = replicas
        points: List[Tuple[int, str]] = []
        for shard in self.shards:
            for i in range(replicas):
                points.append((self._point(f"{shard}:{i}"), shard))
        points.sort()
        self._points = [p for p, _ in points]
        self._owners = [s for _, s in points]

    @staticmethod
    def _point(data: str) -> int:
        """A 64-bit ring position from a stable cryptographic hash."""
        digest = hashlib.sha256(data.encode()).digest()
        return int.from_bytes(digest[:8], "big")

    def route(self, key: str) -> str:
        """The shard owning ``key`` (stable across ring rebuilds)."""
        index = bisect.bisect_right(self._points, self._point(key))
        if index == len(self._points):
            index = 0
        return self._owners[index]

    def distribution(self, keys: Sequence[str]) -> Dict[str, int]:
        """How many of ``keys`` each shard owns (diagnostics/tests)."""
        counts = {shard: 0 for shard in self.shards}
        for key in keys:
            counts[self.route(key)] += 1
        return counts


def shard_urls(host: str, port: int, shards: int) -> List[str]:
    """Worker-service URLs for an N-shard deployment: the router owns
    ``port`` and shard *i* listens on ``port + 1 + i``."""
    if shards < 1:
        raise ValueError("shards must be >= 1")
    return [f"http://{host}:{port + 1 + i}" for i in range(shards)]


@dataclass
class RouterConfig:
    """One router deployment: the public listener plus its shards."""

    shards: List[str] = field(default_factory=list)
    host: str = "127.0.0.1"
    port: int = 8080
    max_body: int = DEFAULT_MAX_BODY
    #: per-shard keep-alive connections kept pooled
    pool_size: int = 32
    #: seconds granted to one forwarded request (covers queue + task)
    forward_timeout: float = 300.0


class Router(HttpServer):
    """The shard-routing front end (one asyncio process, no pool).

    Task requests are parsed only far enough to learn their content
    address, routed on the :class:`HashRing`, and proxied byte-for-byte
    to the owning shard; the shard's response document is annotated
    with ``served.shard`` before it returns.  Every other endpoint
    aggregates across shards.
    """

    def __init__(
        self,
        config: RouterConfig,
        tracer: Optional[Tracer] = None,
    ) -> None:
        if not config.shards:
            raise ValueError("Router needs at least one shard URL")
        super().__init__(
            config.host, config.port, config.max_body,
            tracer if tracer is not None else Tracer(),
            {
                ("POST", "/v1/task"): self._handle_task,
                ("GET", "/healthz"): self._handle_healthz,
                ("GET", "/metrics"): self._handle_metrics,
                ("GET", "/shards"): self._handle_shards,
                ("POST", "/drain"): self._handle_drain,
            },
            counter_prefix="router",
        )
        self.config = config
        self.shard_ids = [f"shard-{i}" for i in range(len(config.shards))]
        self.ring = HashRing(self.shard_ids)
        self.clients = {
            sid: HttpClient(url, pool_size=config.pool_size)
            for sid, url in zip(self.shard_ids, config.shards)
        }
        self._draining = False

    async def _close(self) -> None:
        """Close the shard connection pools after the listener."""
        for client in self.clients.values():
            await client.close()

    # ------------------------------------------------------------------
    # endpoints
    # ------------------------------------------------------------------
    async def _handle_task(self, request: Request) -> bytes:
        """Route one task to its shard by content address."""
        keep = request.keep_alive
        self.tracer.count("router.requests")
        if self._draining:
            self.tracer.count("router.rejected_503")
            return json_response(
                503, {"error": "draining: not accepting new work"},
                keep_alive=keep,
            )
        task_request = parse_task_request(request.json())
        shard = self.ring.route(task_request.key)
        self.tracer.count(f"router.forwarded.{shard}")
        try:
            response = await self.clients[shard].request(
                "POST", "/v1/task", request.body,
                timeout=self.config.forward_timeout,
            )
        except (ConnectionError, asyncio.TimeoutError) as exc:
            self.tracer.count("router.shard_errors")
            status = 504 if isinstance(exc, asyncio.TimeoutError) else 503
            return json_response(
                status,
                {"error": f"{shard}: {str(exc) or type(exc).__name__}",
                 "shard": shard},
                keep_alive=keep,
            )
        document = self._annotate(response, shard)
        return json_response(response.status, document, keep_alive=keep)

    @staticmethod
    def _annotate(response: Response, shard: str) -> Any:
        """Stamp ``served.shard`` into a shard's response document."""
        try:
            document = response.json()
        except HttpError:
            return {"error": "shard returned a non-JSON body",
                    "shard": shard}
        if isinstance(document, dict):
            served = document.get("served")
            if isinstance(served, dict):
                served["shard"] = shard
            else:
                document["shard"] = shard
        return document

    async def _shard_health(self, sid: str) -> Dict[str, Any]:
        """One shard's ``/healthz`` document (or the failure)."""
        try:
            response = await self.clients[sid].request(
                "GET", "/healthz", timeout=5.0
            )
            document = response.json()
            if not isinstance(document, dict):
                document = {"status": "bad-response"}
            document["healthy"] = response.status == 200
            return document
        except (ConnectionError, asyncio.TimeoutError, HttpError) as exc:
            return {"status": "unreachable",
                    "error": str(exc) or type(exc).__name__,
                    "healthy": False}

    async def _handle_healthz(self, request: Request) -> bytes:
        """Aggregate health: 200 iff every shard answers healthy."""
        healths = await asyncio.gather(
            *[self._shard_health(sid) for sid in self.shard_ids]
        )
        shards = dict(zip(self.shard_ids, healths))
        all_healthy = all(h["healthy"] for h in healths)
        draining = self._draining
        payload = {
            "status": ("draining" if draining
                       else "ok" if all_healthy else "degraded"),
            "uptime_seconds": round(
                time.monotonic() - self._started_at, 3
            ),
            "shards": shards,
            "healthy_shards": sum(h["healthy"] for h in healths),
            "total_shards": len(self.shard_ids),
        }
        status = 200 if all_healthy and not draining else 503
        return json_response(status, payload, keep_alive=request.keep_alive)

    async def _handle_metrics(self, request: Request) -> bytes:
        """The router's own counters as Prometheus text (each shard
        serves its own ``/metrics`` on its own port)."""
        return self._metrics_response(
            request, {"router_shards": float(len(self.shard_ids))}
        )

    async def _handle_shards(self, request: Request) -> bytes:
        """Inventory: shard ids, URLs, and live health."""
        healths = await asyncio.gather(
            *[self._shard_health(sid) for sid in self.shard_ids]
        )
        payload = {
            "shards": [
                {"id": sid, "url": self.clients[sid].url, **health}
                for sid, health in zip(self.shard_ids, healths)
            ],
            "ring_replicas": self.ring.replicas,
        }
        return json_response(200, payload, keep_alive=request.keep_alive)

    async def _handle_drain(self, request: Request) -> bytes:
        """Drain every shard (each finishes its in-flight work), then
        report the deployment drained."""
        already = self._draining
        self._draining = True

        async def drain_shard(sid: str) -> Dict[str, Any]:
            try:
                response = await self.clients[sid].request(
                    "POST", "/drain", timeout=self.config.forward_timeout
                )
                document = response.json()
                return document if isinstance(document, dict) else {
                    "drained": False, "error": "bad drain response"
                }
            except (ConnectionError, asyncio.TimeoutError,
                    HttpError) as exc:
                return {"drained": False,
                        "error": str(exc) or type(exc).__name__}

        reports = await asyncio.gather(
            *[drain_shard(sid) for sid in self.shard_ids]
        )
        # Drained shards exit right after replying; close the pooled
        # keep-alive connections now so their handler tasks see EOF
        # instead of being cancelled by the shard's loop shutdown.
        for client in self.clients.values():
            await client.close()
        shards = dict(zip(self.shard_ids, reports))
        payload = {
            "drained": all(r.get("drained") for r in reports),
            "already_draining": already,
            "shards": shards,
        }
        response = json_response(200, payload, keep_alive=request.keep_alive)
        self._drain_done.set()
        return response


class ShardSupervisor:
    """Spawns and supervises the shard worker processes (CLI mode).

    Each shard is a full ``python -m repro serve`` subprocess built
    from ``argv_for(url)``; the supervisor waits for every shard's
    ``/healthz``, then watches them on a short interval, **restarting
    any shard that exits while the deployment is not draining** (the
    ring keys re-land on the same shard id, so a restart costs only
    that shard's warm state).  After a drain, shards exit on their own
    (``serve_until_drained``) and :meth:`reap` collects them.
    """

    def __init__(
        self,
        urls: Sequence[str],
        argv_for: "Any",
        check_interval: float = 1.0,
        startup_timeout: float = 30.0,
    ) -> None:
        self.urls = list(urls)
        self.argv_for = argv_for
        self.check_interval = check_interval
        self.startup_timeout = startup_timeout
        self.processes: List[Any] = [None] * len(self.urls)
        self.restarts = 0
        self.draining = False
        self._watch_task: Optional["asyncio.Task[None]"] = None

    def _spawn(self, index: int) -> None:
        import subprocess

        argv = [sys.executable, "-m", "repro"] + list(
            self.argv_for(self.urls[index])
        )
        self.processes[index] = subprocess.Popen(argv)

    async def start(self) -> None:
        """Spawn every shard and wait until all are healthy."""
        for index in range(len(self.urls)):
            self._spawn(index)
        await asyncio.gather(*[
            wait_healthy(url, timeout=self.startup_timeout)
            for url in self.urls
        ])
        self._watch_task = asyncio.create_task(self._watch())

    async def _watch(self) -> None:
        """Restart shards that die outside a drain."""
        while not self.draining:
            await asyncio.sleep(self.check_interval)
            for index, process in enumerate(self.processes):
                if self.draining or process is None:
                    continue
                if process.poll() is not None:
                    self.restarts += 1
                    self._spawn(index)
                    try:
                        await wait_healthy(
                            self.urls[index],
                            timeout=self.startup_timeout,
                        )
                    except TimeoutError:
                        continue  # next sweep retries

    async def reap(self, timeout: float = 15.0) -> None:
        """Stop watching and collect shard exits (terminate stragglers)."""
        self.draining = True
        if self._watch_task is not None:
            self._watch_task.cancel()
            try:
                await self._watch_task
            except asyncio.CancelledError:
                pass
        deadline = time.monotonic() + timeout
        for process in self.processes:
            if process is None:
                continue
            while (process.poll() is None
                   and time.monotonic() < deadline):
                await asyncio.sleep(0.1)
            if process.poll() is None:
                process.terminate()
                try:
                    await asyncio.to_thread(process.wait, 5.0)
                except Exception:
                    process.kill()


def _shard_argv(args: Any, url: str) -> List[str]:
    """The ``repro serve`` argv for one shard worker, mirroring the
    parent CLI invocation minus the sharding flags."""
    from urllib.parse import urlsplit

    parts = urlsplit(url)
    argv = [
        "serve",
        "--host", parts.hostname or "127.0.0.1",
        "--port", str(parts.port),
        "--workers", str(args.workers),
        "--cache-dir", args.cache_dir or "",
        "--light-queue", str(args.light_queue),
        "--light-concurrency", str(args.light_concurrency),
        "--heavy-queue", str(args.heavy_queue),
        "--heavy-concurrency", str(args.heavy_concurrency),
        "--mem-entries", str(args.mem_entries),
    ]
    if args.verify:
        argv.append("--verify")
    if args.timeout is not None:
        argv.extend(["--timeout", str(args.timeout)])
    return argv


async def serve_sharded(args: Any) -> None:
    """The ``repro serve --shards N`` orchestration: spawn shards,
    route on the public port, drain everything, reap."""
    urls = shard_urls(args.host, args.port, args.shards)
    supervisor = ShardSupervisor(
        urls, lambda url: _shard_argv(args, url)
    )
    await supervisor.start()
    router = Router(RouterConfig(
        shards=urls, host=args.host, port=args.port,
    ))
    port = await router.start()
    print(f"repro serve routing {args.shards} shard(s) on "
          f"http://{args.host}:{port} "
          f"(shard ports {urls[0].rsplit(':', 1)[1]}-"
          f"{urls[-1].rsplit(':', 1)[1]}, "
          f"workers/shard={args.workers})",
          flush=True)
    try:
        await router.serve_until_drained()
    finally:
        await supervisor.reap()
    if supervisor.restarts:
        print(f"supervisor restarted {supervisor.restarts} shard(s)",
              flush=True)
    print("drained; exiting", flush=True)
