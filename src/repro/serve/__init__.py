"""Async serving layer: the engine as an always-on, low-latency API.

Every other entry point in this repository (CLI, benchmarks,
campaigns) is batch-oriented and pays process start, import, and
worker warm-up cost per invocation.  This package makes the
reproduction *resident*: an :mod:`asyncio` HTTP service (stdlib only)
that answers JSON task requests — coalescing strategies, allocators,
reductions, analysis checks, anything a
:class:`repro.engine.tasks.TaskSpec` can express — from a persistent
worker pool, fronted by three serving mechanisms:

* **admission control** (:mod:`repro.serve.admission`) — bounded
  per-class queues with explicit 429/503 backpressure and deadline
  propagation into :mod:`repro.budget`;
* **cache-aware routing** (:mod:`repro.serve.service`) — a two-tier
  result cache (in-memory LRU in front of the engine's
  content-addressed file store) answers repeats without touching a
  worker, and verified results are written back for campaigns to
  reuse;
* **sharding** (:mod:`repro.serve.router`) — ``repro serve --shards N``
  spawns N supervised worker services and consistent-hash-routes each
  task to the shard owning its content address, preserving cache
  affinity while scaling throughput across processes.

Operational surface: ``/healthz``, ``/metrics`` (Prometheus text),
``/drain`` (plus ``/shards`` on the router).  Entry points:
``python -m repro serve`` and the load generator
``python -m repro client``.  See ``docs/SERVING.md``.
"""

from .admission import AdmissionController, ClassLimit
from .client import HttpClient, LoadConfig, ShardClient, run_load
from .protocol import TaskRequest, parse_task_request
from .router import (
    HashRing,
    Router,
    RouterConfig,
    ShardSupervisor,
    shard_urls,
)
from .service import ServeConfig, Service

__all__ = [
    "AdmissionController",
    "ClassLimit",
    "HttpClient",
    "LoadConfig",
    "run_load",
    "TaskRequest",
    "parse_task_request",
    "HashRing",
    "Router",
    "RouterConfig",
    "ShardClient",
    "ShardSupervisor",
    "shard_urls",
    "ServeConfig",
    "Service",
]
