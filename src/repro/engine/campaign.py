"""Campaign orchestration: shards, cache reuse, merged reports, summary.

A :class:`Campaign` is a named list of task specs plus execution
parameters.  :func:`run_campaign` consults the
:class:`~repro.engine.cache.ResultCache` first — reusable records
(statuses ``ok`` and ``budget_exceeded``, both deterministic outcomes)
count as cache hits; missing, ``timeout``, ``crashed`` and ``error``
records are (re-)executed through the pool — which is what makes an
interrupted or partially-failed campaign *resumable*: running it again
only executes what is missing or failed.

Every finalized record is written to the cache as it settles, each
task's tracer report is absorbed into the campaign tracer
(:meth:`repro.obs.Tracer.absorb`), and the run ends with a summary
artifact (written next to the cache) whose ``result_hash`` is a stable
digest of the per-task result hashes *in task order* — identical for 1
and N workers by construction.
"""

from __future__ import annotations

import hashlib
import json
import time
from collections import Counter
from dataclasses import dataclass
from typing import Any, Dict, List, Optional, Tuple

from ..obs import Tracer
from .cache import ResultCache
from .pool import run_tasks
from .tasks import ENGINE_VERSION, TaskSpec, expand_grid, task_hash

__all__ = [
    "Campaign",
    "load_campaign",
    "run_campaign",
    "run_campaign_remote",
    "campaign_status",
    "REUSABLE_STATUSES",
]

#: Cached statuses that are deterministic outcomes and thus reusable.
REUSABLE_STATUSES = frozenset({"ok", "budget_exceeded"})


@dataclass
class Campaign:
    """A named task list plus execution parameters (all overridable at
    run time)."""

    name: str
    tasks: List[TaskSpec]
    workers: int = 1
    timeout: Optional[float] = None
    retries: int = 1
    backoff: float = 0.5
    verify: bool = False

    def keys(self) -> List[str]:
        """The content addresses of every task, in task order."""
        return [task_hash(spec) for spec in self.tasks]


def load_campaign(path: str) -> Campaign:
    """Load a campaign spec file (JSON).

    Schema (see ``docs/ENGINE.md``)::

        {"name": "sweep",
         "workers": 4, "timeout": 30.0, "retries": 1,      # optional
         "defaults": {"generator": "pressure", "k": 6},    # optional
         "grid":  {"seed": {"count": 50}, "margin": [0, 1],
                   "strategy": ["briggs", "brute"]},       # and/or
         "tasks": [{"generator": "pressure", "seed": 7, ...}]}

    ``grid`` expands to the cartesian product via
    :func:`repro.engine.tasks.expand_grid`; explicit ``tasks`` entries
    are appended after the grid.
    """
    with open(path) as stream:
        data = json.load(stream)
    if not isinstance(data, dict) or "name" not in data:
        raise ValueError(f"{path}: campaign spec needs a 'name'")
    defaults = data.get("defaults", {})
    tasks: List[TaskSpec] = []
    if "grid" in data:
        tasks.extend(expand_grid(data["grid"], defaults))
    for entry in data.get("tasks", []):
        merged = {**defaults, **entry}
        fields = {k: v for k, v in merged.items()
                  if k in ("generator", "seed", "k", "strategy",
                           "max_steps", "max_seconds", "params")}
        extra = {k: v for k, v in merged.items() if k not in fields}
        params = dict(fields.pop("params", {}))
        params.update(extra)
        tasks.append(TaskSpec.from_dict({**fields, "params": params}))
    if not tasks:
        raise ValueError(f"{path}: campaign has no tasks (grid or tasks)")
    return Campaign(
        name=str(data["name"]),
        tasks=tasks,
        workers=int(data.get("workers", 1)),
        timeout=data.get("timeout"),
        retries=int(data.get("retries", 1)),
        backoff=float(data.get("backoff", 0.5)),
        verify=bool(data.get("verify", False)),
    )


def campaign_status(campaign: Campaign, cache: ResultCache) -> Dict[str, Any]:
    """What the cache already knows about a campaign: per-status counts
    plus which tasks would run on (re-)execution."""
    by_status: Dict[str, int] = {}
    missing = 0
    would_run: List[str] = []
    for spec in campaign.tasks:
        key = task_hash(spec)
        record = cache.get(key)
        if record is None:
            missing += 1
            would_run.append(key)
            continue
        status = record.get("status", "unknown")
        by_status[status] = by_status.get(status, 0) + 1
        if status not in REUSABLE_STATUSES:
            would_run.append(key)
    return {
        "campaign": campaign.name,
        "engine_version": ENGINE_VERSION,
        "total_tasks": len(campaign.tasks),
        "by_status": dict(sorted(by_status.items())),
        "missing": missing,
        "would_run": len(would_run),
        "reusable": len(campaign.tasks) - len(would_run),
    }


def _campaign_result_hash(records: List[Dict[str, Any]]) -> str:
    """Digest of per-task semantic outcomes, in task order."""
    parts = [r.get("result_hash") or f"status:{r.get('status')}"
             for r in records]
    return hashlib.sha256("\n".join(parts).encode()).hexdigest()[:16]


def _verification_block(records: List[Dict[str, Any]]) -> Dict[str, Any]:
    """Aggregate per-record certification outcomes for the summary."""
    certification: Dict[str, Any] = {
        "enabled": True,
        "certified": 0,
        "failed": [],
        "budget_exceeded": 0,
        "skipped": 0,
    }
    for record in records:
        outcome = record.get("verification") or {"status": "skipped"}
        status = outcome.get("status", "skipped")
        if status == "certified":
            certification["certified"] += 1
        elif status == "failed":
            certification["failed"].append(record["key"])
        elif status == "budget_exceeded":
            certification["budget_exceeded"] += 1
        else:
            certification["skipped"] += 1
    return certification


def _summarize(
    campaign: Campaign,
    records: List[Dict[str, Any]],
    tracer: Tracer,
    workers: int,
    cache_hits: int,
    executed: int,
    t0: float,
    verify: bool,
) -> Dict[str, Any]:
    """The summary both campaign paths return: per-status counts, the
    failed keys, summed payload fields, the result hash and the merged
    trace of ``records`` (in task order)."""
    by_status: Dict[str, int] = {}
    aggregate = {"coalesced": 0, "coalesced_weight": 0.0,
                 "residual_weight": 0.0, "vertices": 0}
    failed: List[str] = []
    task_seconds = 0.0
    for record in records:
        status = record.get("status", "unknown")
        by_status[status] = by_status.get(status, 0) + 1
        if status not in REUSABLE_STATUSES:
            failed.append(record["key"])
        task_seconds += record.get("seconds") or 0.0
        if record.get("trace"):
            tracer.absorb(record["trace"])
        payload = record.get("payload")
        if status == "ok" and isinstance(payload, dict):
            for field_name in aggregate:
                value = payload.get(field_name)
                if isinstance(value, (int, float)):
                    aggregate[field_name] += value
    summary = {
        "campaign": campaign.name,
        "engine_version": ENGINE_VERSION,
        "total_tasks": len(campaign.tasks),
        "workers": workers,
        "cache_hits": cache_hits,
        "executed": executed,
        "by_status": dict(sorted(by_status.items())),
        "failed_tasks": failed,
        "wall_seconds": round(time.perf_counter() - t0, 6),
        "task_seconds": round(task_seconds, 6),
        "result_hash": _campaign_result_hash(records),
        "aggregate": aggregate,
        "trace": tracer.report(),
    }
    if verify:
        summary["verification"] = _verification_block(records)
    return summary


def run_campaign(
    campaign: Campaign,
    cache: ResultCache,
    workers: Optional[int] = None,
    timeout: Optional[float] = None,
    retries: Optional[int] = None,
    tracer: Optional[Tracer] = None,
    write_summary: bool = True,
    verify: Optional[bool] = None,
) -> Dict[str, Any]:
    """Execute (or resume) a campaign; return the summary dict.

    Only missing and non-reusable cached tasks are executed; every
    settled record is written to the cache immediately, so interrupting
    the run loses at most the in-flight tasks.  The summary aggregates
    statuses, cache hits, the engine counters, and the merged
    per-task tracer reports.

    With ``verify`` (default: the campaign's own ``verify`` field),
    every executed record is certified through the analysis passes
    inside its worker; cache hits that predate verification are
    certified here and the upgraded record is written back.  The
    summary then carries a ``verification`` block with per-status
    counts and the keys of every failed certification.
    """
    tracer = tracer if tracer is not None else Tracer()
    workers = campaign.workers if workers is None else workers
    timeout = campaign.timeout if timeout is None else timeout
    retries = campaign.retries if retries is None else retries
    verify = campaign.verify if verify is None else verify
    t0 = time.perf_counter()

    records: List[Optional[Dict[str, Any]]] = [None] * len(campaign.tasks)
    to_run: List[int] = []
    for i, spec in enumerate(campaign.tasks):
        key = task_hash(spec)
        cached = cache.get(key)
        if cached is not None and cached.get("status") in REUSABLE_STATUSES:
            if verify and "verification" not in cached:
                from ..analysis.engine_check import verify_record

                cached["verification"] = verify_record(
                    spec, cached, tracer=tracer
                )
                cache.put(key, cached)
            records[i] = cached
            tracer.count("engine.cache_hits")
        else:
            to_run.append(i)

    def on_record(record: Dict[str, Any]) -> None:
        cache.put(record["key"], record)

    fresh = run_tasks(
        [campaign.tasks[i] for i in to_run],
        workers=workers,
        timeout=timeout,
        retries=retries,
        backoff=campaign.backoff,
        tracer=tracer,
        on_record=on_record,
        verify=verify,
    )
    for i, record in zip(to_run, fresh):
        records[i] = record
    final: List[Dict[str, Any]] = [r for r in records if r is not None]
    summary = _summarize(
        campaign, final, tracer, workers=workers,
        cache_hits=int(tracer.counters.get("engine.cache_hits", 0)),
        executed=len(to_run), t0=t0, verify=verify,
    )
    if write_summary:
        path = cache.summary_path(campaign.name)
        path.parent.mkdir(parents=True, exist_ok=True)
        with open(path, "w") as stream:
            json.dump(summary, stream, indent=2, sort_keys=True)
            stream.write("\n")
        summary["summary_path"] = str(path)
    return summary


def run_campaign_remote(
    campaign: Campaign,
    url: str,
    workers: Optional[int] = None,
    verify: Optional[bool] = None,
    tracer: Optional[Tracer] = None,
    deadline: Optional[float] = None,
    wait: float = 10.0,
) -> Dict[str, Any]:
    """Execute a campaign *through a running service* instead of a
    local pool (``repro campaign run --remote URL``).

    Up to ``workers`` dispatches are in flight at once, over one
    keep-alive :class:`~repro.serve.client.HttpClient` to the service;
    they POST the campaign's tasks to ``/v1/task`` in task order.
    Caching, admission control, and verification upgrades
    all happen **server-side**; this client only aggregates what the
    service reports.  ``campaign.retries`` bounds re-sends after
    transport failures or 429/503 backpressure (with
    ``campaign.backoff`` sleeps); a task that still has no usable
    response is recorded with status ``unreachable``, and a reply that
    is not a task record with status ``error``; either fails the
    campaign.

    The summary has the shape of :func:`run_campaign` — same
    ``result_hash`` construction, same ``verification`` block — plus
    ``remote`` (the URL) and per-disposition ``served`` counts, so a
    local and a remote run of the same grid are directly comparable.
    """
    import asyncio

    from ..serve.client import HttpClient, wait_healthy
    from ..serve.http import HttpError

    tracer = tracer if tracer is not None else Tracer()
    concurrency = campaign.workers if workers is None else workers
    concurrency = max(1, concurrency)
    want_verify = campaign.verify if verify is None else verify
    retries = max(0, campaign.retries)
    t0 = time.perf_counter()

    async def send(
        client: HttpClient, slots: asyncio.Semaphore, spec: TaskSpec
    ) -> Tuple[Dict[str, Any], Dict[str, Any]]:
        """One task's record and serving metadata, after up to
        ``retries`` re-sends on transport failures and 429/503."""
        document: Dict[str, Any] = {"task": spec.as_dict()}
        if want_verify:
            document["verify"] = True
        if deadline is not None:
            document["deadline"] = deadline
        body = json.dumps(document).encode()
        status, last_error = "unreachable", "no attempt made"
        async with slots:
            for attempt in range(retries + 1):
                if attempt:
                    await asyncio.sleep(campaign.backoff * attempt)
                try:
                    response = await client.request(
                        "POST", "/v1/task", body
                    )
                except ConnectionError as exc:
                    last_error = str(exc)
                    tracer.count("engine.remote_transport_errors")
                    continue
                tracer.count("engine.remote_requests")
                if response.status in (429, 503):
                    last_error = f"HTTP {response.status}"
                    tracer.count("engine.remote_rejected")
                    continue
                try:
                    reply = response.json()
                except HttpError:
                    reply = None
                if isinstance(reply, dict) and isinstance(
                    reply.get("record"), dict
                ):
                    return reply["record"], reply.get("served") or {}
                status = "error"
                last_error = f"malformed response (HTTP {response.status})"
                break
        return {"key": task_hash(spec), "status": status,
                "error": last_error}, {}

    async def dispatch_all() -> List[Tuple[Dict[str, Any], Dict[str, Any]]]:
        await wait_healthy(url, timeout=wait)
        client = HttpClient(url, pool_size=concurrency)
        slots = asyncio.Semaphore(concurrency)
        try:
            return await asyncio.gather(
                *[send(client, slots, spec) for spec in campaign.tasks]
            )
        finally:
            await client.close()

    outcomes = asyncio.run(dispatch_all())
    dispositions = Counter(
        served.get("cache", "unknown") for _, served in outcomes
    )
    cache_hits = dispositions["hit"]
    if cache_hits:
        tracer.count("engine.cache_hits", cache_hits)
    summary = _summarize(
        campaign, [record for record, _ in outcomes], tracer,
        workers=concurrency, cache_hits=cache_hits,
        executed=len(outcomes) - cache_hits, t0=t0, verify=want_verify,
    )
    summary["remote"] = url
    summary["served"] = dict(sorted(dispositions.items()))
    return summary
