"""Parallel, resumable experiment-campaign engine.

Turns "run strategy S on instance corpus C at k registers" into a
sharded task graph executed by a ``multiprocessing`` worker pool with
per-task wall-clock timeouts, bounded retries, crash isolation, and a
content-addressed on-disk result cache, so re-running a campaign only
executes missing or previously-failed tasks.

The pieces (one module each):

* :mod:`repro.engine.tasks` — declarative :class:`TaskSpec` (generator
  parameters + strategy + solver budget) with deterministic per-task
  seeds and stable content hashes, plus the in-process executor;
* :mod:`repro.engine.pool` — the worker pool (:func:`run_tasks`);
* :mod:`repro.engine.cache` — the JSON result store, one append-only
  record log per directory (:class:`ResultCache`), plus its scaling
  companions: the in-memory LRU tier (:class:`MemoryCache`), the
  serving composition (:class:`TieredCache`), and log compaction that
  evicts least-recently-written records first (:func:`compact_cache`);
* :mod:`repro.engine.campaign` — orchestration, tracer-report merging,
  and the summary artifact (:func:`run_campaign`).

Entry point: ``python -m repro campaign {run,status,resume} spec.json``.
See ``docs/ENGINE.md`` for the task model, the cache layout, and the
failure semantics.
"""

from .tasks import (
    ENGINE_VERSION,
    TaskSpec,
    execute_strategy,
    expand_grid,
    run_task,
    task_hash,
)
from .cache import MemoryCache, ResultCache, TieredCache, compact_cache
from .pool import PersistentPool, run_tasks
from .campaign import (
    Campaign,
    campaign_status,
    load_campaign,
    run_campaign,
    run_campaign_remote,
)

__all__ = [
    "ENGINE_VERSION",
    "TaskSpec",
    "task_hash",
    "expand_grid",
    "execute_strategy",
    "run_task",
    "ResultCache",
    "MemoryCache",
    "TieredCache",
    "compact_cache",
    "run_tasks",
    "PersistentPool",
    "Campaign",
    "load_campaign",
    "run_campaign",
    "run_campaign_remote",
    "campaign_status",
]
