"""Async serving layer: the engine as an always-on, low-latency API.

Every other entry point in this repository (CLI, benchmarks,
campaigns) is batch-oriented and pays process start, import, and
worker warm-up cost per invocation.  This package makes the
reproduction *resident*: an :mod:`asyncio` HTTP service (stdlib only)
that answers JSON task requests — coalescing strategies, allocators,
reductions, analysis checks, anything a
:class:`repro.engine.tasks.TaskSpec` can express — from a persistent
worker pool, fronted by two serving mechanisms:

* **admission control** (:mod:`repro.serve.admission`) — bounded
  per-class queues with explicit 429/503 backpressure and deadline
  propagation into :mod:`repro.budget`;
* **cache-aware serving** (:mod:`repro.serve.service`) — a two-tier
  result cache (in-memory LRU in front of the engine's
  content-addressed file store) answers repeats without touching a
  worker, and verified results are written back for campaigns to
  reuse.

Operational surface: ``/healthz``, ``/metrics`` (Prometheus text) and
``/drain``.  Entry points: ``python -m repro serve`` and the load
generator ``python -m repro client``.  See ``docs/SERVING.md``.
"""

from .admission import AdmissionController, ClassLimit
from .client import HttpClient, LoadConfig, run_load
from .protocol import TaskRequest, parse_task_request
from .service import ServeConfig, Service

__all__ = [
    "AdmissionController",
    "ClassLimit",
    "HttpClient",
    "LoadConfig",
    "run_load",
    "TaskRequest",
    "parse_task_request",
    "ServeConfig",
    "Service",
]
