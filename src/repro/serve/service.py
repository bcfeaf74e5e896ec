"""The asyncio coalescing/allocation service (`repro serve`).

One resident process turns the batch-oriented engine into a query
surface: requests arrive as JSON over HTTP/1.1
(:mod:`repro.serve.http`), pass **cache-aware admission**, and each
execute as one dispatch on a **persistent worker pool**
(:class:`repro.engine.pool.PersistentPool`) that amortizes process
spawn and import cost across the service's lifetime.

Request lifecycle (``POST /v1/task``):

1. parse + validate into a :class:`repro.serve.protocol.TaskRequest`
   (400 on schema violations);
2. **cache probe** — the task's content address
   (:func:`repro.engine.tasks.task_hash`) is looked up in the tiered
   result store (:class:`~repro.engine.cache.TieredCache`): the
   in-memory LRU tier answers first and the file tier backs it, both
   probed inline on the event loop; a file hit is promoted into
   memory; a reusable
   record answers immediately (``serve.cache_hit``), optionally
   upgraded with a verification certificate when the request asks for
   one the record lacks; ``cache: "bypass"/"refresh"`` opt out;
3. **admission** — bounded per-class queues reject overload with 429
   and drain with 503 (:mod:`repro.serve.admission`);
4. **dispatch** — the request takes a dispatch slot of its class and
   runs as one pool dispatch under its remaining request deadline,
   awaited on the event loop (:meth:`PersistentPool.run
   <repro.engine.pool.PersistentPool.run>`; only ``workers=0`` runs
   the task in a thread, off the loop);
5. the record is written back to the cache (``ok`` always;
   ``budget_exceeded`` only when no request deadline tightened the
   task's own budget, so a deadline can never poison the cache for
   deadline-free callers) and the response carries the record plus
   serving metadata (cache disposition, queue time).

Operational endpoints: ``GET /healthz`` (200, or 503 while draining),
``GET /metrics`` (Prometheus text,
:func:`repro.obs.export.to_prometheus`), ``POST /drain`` (stop
admitting, finish in-flight work, then report drained —
the CLI exits at that point).  Failure semantics and tuning knobs are
documented in ``docs/SERVING.md``.
"""

from __future__ import annotations

import asyncio
import time
from dataclasses import dataclass
from typing import Any, Dict, Optional

from ..engine.cache import MemoryCache, ResultCache, TieredCache
from ..engine.campaign import REUSABLE_STATUSES
from ..engine.pool import PersistentPool
from ..obs import Tracer
from .admission import AdmissionController, ClassLimit
from .http import (
    DEFAULT_MAX_BODY,
    HttpServer,
    Request,
    json_response,
)
from .protocol import HEAVY, LIGHT, TaskRequest, parse_task_request

__all__ = ["ServeConfig", "Service", "REUSABLE_STATUSES"]

#: HTTP status for each record status (the record itself is always in
#: the body; budget_exceeded is a *result*, not a failure).
_RECORD_HTTP_STATUS = {
    "ok": 200,
    "budget_exceeded": 200,
    "timeout": 504,
    "crashed": 500,
    "error": 500,
}


@dataclass
class ServeConfig:
    """Tuning knobs of one service instance (see docs/SERVING.md)."""

    host: str = "127.0.0.1"
    port: int = 8080
    workers: int = 1
    cache_dir: Optional[str] = None
    verify_default: bool = False
    light_queue: int = 128
    light_concurrency: int = 8
    heavy_queue: int = 16
    heavy_concurrency: int = 2
    task_timeout: Optional[float] = None
    max_body: int = DEFAULT_MAX_BODY
    #: in-memory LRU tier capacity in records (>= 1)
    mem_entries: int = 1024


class Service(HttpServer):
    """The serving stack: cache → admission → pool → cache → response."""

    def __init__(
        self,
        config: ServeConfig,
        tracer: Optional[Tracer] = None,
    ) -> None:
        super().__init__(
            config.host, config.port, config.max_body,
            tracer if tracer is not None else Tracer(),
            {
                ("POST", "/v1/task"): self._handle_task,
                ("GET", "/healthz"): self._handle_healthz,
                ("GET", "/metrics"): self._handle_metrics,
                ("POST", "/drain"): self._handle_drain,
            },
        )
        self.config = config
        # Two-tier result store: a synchronous in-memory LRU answers
        # repeats without leaving the event loop; the file tier backs
        # it and survives restarts.
        self.cache: Optional[TieredCache] = None
        if config.cache_dir:
            self.cache = TieredCache(
                ResultCache(config.cache_dir),
                MemoryCache(config.mem_entries, tracer=self.tracer),
                tracer=self.tracer,
            )
        self.admission = AdmissionController(
            {
                LIGHT: ClassLimit(config.light_queue,
                                  config.light_concurrency),
                HEAVY: ClassLimit(config.heavy_queue,
                                  config.heavy_concurrency),
            },
            tracer=self.tracer,
        )
        # spawned last, so an invalid limit above leaves no workers
        self.pool = PersistentPool(
            workers=config.workers, tracer=self.tracer
        )

    async def _close(self) -> None:
        """Shut the worker pool down after the listener."""
        await asyncio.to_thread(self.pool.close)

    # ------------------------------------------------------------------
    # endpoints
    # ------------------------------------------------------------------
    async def _handle_healthz(self, request: Request) -> bytes:
        """``GET /healthz`` — liveness + readiness in one document."""
        draining = self.admission.draining
        payload = {
            "status": "draining" if draining else "ok",
            "uptime_seconds": round(
                time.monotonic() - self._started_at, 3
            ),
            "in_system": self.admission.in_system(),
            "pool_workers": self.config.workers,
            "cache": self._cache_health(),
        }
        return json_response(503 if draining else 200, payload,
                             keep_alive=request.keep_alive)

    def _cache_health(self) -> Dict[str, Any]:
        """The cache-tier block of the healthz document."""
        if self.cache is None:
            return {"enabled": False}
        return {
            "enabled": True,
            "tiers": ["memory", "file"],
            "memory_entries": len(self.cache.memory),
            "memory_capacity": self.cache.memory.capacity,
        }

    async def _handle_metrics(self, request: Request) -> bytes:
        """``GET /metrics`` — counters/spans/gauges as Prometheus text."""
        gauges = self.admission.gauges()
        if self.cache is not None:
            gauges["serve_cache_memory_entries"] = float(
                len(self.cache.memory)
            )
            gauges["serve_cache_memory_capacity"] = float(
                self.cache.memory.capacity
            )
        gauges["serve_pool_workers"] = float(self.config.workers)
        return self._metrics_response(request, gauges)

    async def _handle_drain(self, request: Request) -> bytes:
        """``POST /drain`` — stop admitting, finish in-flight, report."""
        already = self.admission.draining
        self.admission.start_drain()
        await self.admission.wait_drained()
        payload = {
            "drained": True,
            "already_draining": already,
            "in_system": self.admission.in_system(),
        }
        response = json_response(200, payload, keep_alive=request.keep_alive)
        self._drain_done.set()
        return response

    async def _handle_task(self, request: Request) -> bytes:
        """``POST /v1/task`` — the serving hot path."""
        task_request = parse_task_request(request.json())
        if self.config.verify_default:
            task_request.verify = True
        keep = request.keep_alive
        self.tracer.count("serve.requests")

        # drain refuses *all* new work — even cache hits — so a
        # draining replica empties deterministically
        if self.admission.draining:
            self.tracer.count("serve.rejected_503")
            return json_response(
                503, {"error": "draining: not accepting new work"},
                keep_alive=keep,
            )

        cached = await self._cache_probe(task_request)
        if cached is not None:
            self.tracer.count("serve.cache_hit")
            return self._record_response(
                cached, served={"cache": "hit", "queue_seconds": 0.0,
                                "class": task_request.admission_class},
                keep_alive=keep,
            )
        if self.cache is not None and task_request.cache_mode == "use":
            self.tracer.count("serve.cache_miss")

        cls = task_request.admission_class
        rejection = self.admission.try_enter(cls)
        if rejection is not None:
            status, reason = rejection
            return json_response(
                status, {"error": reason, "class": cls}, keep_alive=keep
            )
        entered_at = time.monotonic()
        try:
            record = await self._dispatch(task_request, entered_at)
        finally:
            self.admission.leave(cls)
        queue_seconds = time.monotonic() - entered_at
        return self._record_response(
            record,
            served={
                "cache": task_request.cache_mode
                if task_request.cache_mode != "use" else "miss",
                "queue_seconds": round(queue_seconds, 6),
                "class": cls,
            },
            keep_alive=keep,
        )

    # ------------------------------------------------------------------
    # cache + dispatch
    # ------------------------------------------------------------------
    async def _cache_probe(
        self, task_request: TaskRequest
    ) -> Optional[Dict[str, Any]]:
        """A reusable cached record for the request, or None.

        A hit that lacks the verification the request asks for is
        upgraded in place (the record is certified off-loop and written
        back), mirroring the campaign engine's cache-hit verification
        upgrade.
        """
        if self.cache is None or task_request.cache_mode != "use":
            return None
        # both tiers are probed on the event loop: a file read is
        # cheaper than the thread hop that would wrap it
        record = self.cache.get(task_request.key)
        if record is None or record.get("status") not in REUSABLE_STATUSES:
            return None
        if task_request.verify and "verification" not in record:
            from ..analysis.engine_check import verify_record

            record["verification"] = await asyncio.to_thread(
                verify_record, task_request.spec, record,
                tracer=self.tracer,
            )
            self.tracer.count("serve.verify_upgrades")
            self.cache.put(task_request.key, record)
        return record

    def _cache_write(
        self, task_request: TaskRequest, record: Dict[str, Any]
    ) -> None:
        """Write a fresh record back, unless a request deadline could
        have shaped the outcome (see the module docstring)."""
        if self.cache is None or task_request.cache_mode == "bypass":
            return
        status = record.get("status")
        cacheable = status == "ok" or (
            status == "budget_exceeded" and task_request.deadline is None
        )
        if cacheable:
            self.cache.put(task_request.key, record)

    async def _dispatch(
        self, task_request: TaskRequest, entered_at: float
    ) -> Dict[str, Any]:
        """Run one admitted request as a single pool dispatch and write
        its record back to the cache."""
        async with self.admission.slot(task_request.admission_class):
            deadline = task_request.deadline
            if deadline is not None:
                deadline -= time.monotonic() - entered_at
            with self.tracer.span("serve/dispatch"):
                if self.pool.workers:
                    record = await self.pool.run(
                        task_request.spec, deadline,
                        task_request.verify, self.config.task_timeout,
                    )
                else:  # inline compute would stall the loop
                    record = await asyncio.to_thread(
                        self.pool.run_inline, task_request.spec,
                        deadline, task_request.verify,
                    )
        if record.get("trace"):
            self.tracer.absorb(record["trace"])
        try:
            self._cache_write(task_request, record)
        except OSError:
            self.tracer.count("serve.cache_write_errors")
        return record

    def _record_response(
        self,
        record: Dict[str, Any],
        served: Dict[str, Any],
        keep_alive: bool,
    ) -> bytes:
        """Wrap a task record and its serving metadata as a response."""
        status = _RECORD_HTTP_STATUS.get(record.get("status", "error"), 500)
        slim = dict(record)
        slim.pop("trace", None)  # per-task traces are large; /metrics
        # carries the aggregated view
        return json_response(
            status, {"record": slim, "served": served},
            keep_alive=keep_alive,
        )
