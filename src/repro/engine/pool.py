"""Fault-tolerant worker pool: per-task timeout, retry, crash isolation.

:class:`PersistentPool` keeps ``workers`` **long-lived** subprocesses
and runs one :class:`~repro.engine.tasks.TaskSpec` per dispatch, so
spawn and import cost is paid once per pool, not per task.  Both the
service (:mod:`repro.serve`) and batch campaigns (:func:`run_tasks`)
execute on it, with one set of failure semantics:

* a dispatch that overruns its wall-clock ``timeout`` has its worker
  *killed* and replaced, and the rest of the campaign never notices
  (status ``timeout``);
* a worker that dies — segfault, ``os._exit``, OOM kill — is detected
  as a closed pipe and replaced (status ``crashed``);
* :func:`run_tasks` retries both with linear backoff, up to
  ``retries`` extra attempts, before the status sticks;
* an exception raised by the task itself is deterministic, so it is
  recorded as ``error`` immediately, with no retry;
* :exc:`~repro.budget.BudgetExceeded` is a *result*, not a failure —
  the worker reports ``budget_exceeded`` and the record is cacheable.

``workers=0`` runs everything inline in the calling process — no
subprocesses, no hang protection (only cooperative budgets) — which is
what the benchmarks and any deterministic single-process use case want.
Task records come back **in input order** regardless of completion
order, so campaign-level result hashes are identical for 1 and N
workers.

Progress counters are threaded through a :class:`repro.obs.Tracer`:
``engine.tasks_run``, ``engine.timeouts``, ``engine.crashes``,
``engine.retries``, ``engine.errors`` (see ``docs/OBSERVABILITY.md``).
"""

from __future__ import annotations

import multiprocessing
import queue as queue_mod
import threading
import time
import traceback
from concurrent.futures import ThreadPoolExecutor
from functools import partial
from typing import Any, Callable, Dict, List, Optional, Sequence

from ..budget import BudgetExceeded
from ..obs import NULL_TRACER, Tracer
from .tasks import ENGINE_VERSION, TaskSpec, run_task, task_hash

__all__ = ["run_tasks", "PersistentPool", "RETRYABLE_STATUSES"]

#: Statuses caused by the environment rather than the task itself —
#: the only ones worth retrying.
RETRYABLE_STATUSES = frozenset({"timeout", "crashed"})


def _guarded_run(
    spec: TaskSpec,
    verify: bool = False,
    deadline: Optional[float] = None,
) -> Dict[str, Any]:
    """Run one task, converting task-raised exceptions into ``error``
    records (deterministic failures; never retried)."""
    try:
        return run_task(spec, verify=verify, deadline=deadline)
    except BudgetExceeded:  # run_task already handles this; belt+braces
        raise
    except Exception:
        return _failure_record(
            spec, "error", error=traceback.format_exc(limit=20)
        )


def _failure_record(
    spec: TaskSpec,
    status: str,
    error: Optional[str] = None,
    seconds: float = 0.0,
) -> Dict[str, Any]:
    return {
        "schema": 1,
        "engine": ENGINE_VERSION,
        "key": task_hash(spec),
        "task": spec.as_dict(),
        "status": status,
        "attempts": 1,
        "payload": None,
        "result_hash": None,
        "error": error,
        "seconds": seconds,
        "trace": None,
    }


def run_tasks(
    specs: Sequence[TaskSpec],
    workers: int = 1,
    timeout: Optional[float] = None,
    retries: int = 1,
    backoff: float = 0.5,
    tracer: Tracer = NULL_TRACER,
    on_record: Optional[Callable[[Dict[str, Any]], None]] = None,
    verify: bool = False,
) -> List[Dict[str, Any]]:
    """Execute every spec; return one record per spec, in input order.

    ``timeout`` is the per-task wall-clock limit in seconds (None =
    unlimited); ``retries`` is how many *extra* attempts a retryable
    failure gets; ``backoff`` scales the linear delay before attempt n
    re-launches.  ``on_record`` is called with each finalized record as
    it settles (the campaign layer uses it to write the cache while the
    run is still in flight).  ``verify=True`` makes each worker certify
    its own ``ok`` record through the analysis passes and attach the
    outcome under ``record["verification"]``.
    """
    if workers < 0:
        raise ValueError("workers must be >= 0")
    settled = threading.Lock()

    def settle(pool: "PersistentPool", spec: TaskSpec) -> Dict[str, Any]:
        attempt = 1
        record = pool.submit(spec, verify=verify, timeout=timeout)
        while record["status"] in RETRYABLE_STATUSES and attempt <= retries:
            tracer.count("engine.retries")
            time.sleep(backoff * attempt)
            attempt += 1
            record = pool.submit(spec, verify=verify, timeout=timeout)
        record["attempts"] = attempt
        tracer.count("engine.tasks_run")
        if record["status"] == "error":
            tracer.count("engine.errors")
        if on_record is not None:
            with settled:
                on_record(record)
        return record

    with PersistentPool(min(workers, len(specs)), tracer=tracer) as pool:
        if pool.workers == 0:
            return [settle(pool, spec) for spec in specs]
        with ThreadPoolExecutor(pool.workers) as dispatchers:
            return list(dispatchers.map(partial(settle, pool), specs))


# ----------------------------------------------------------------------
# persistent pool (the serving-layer execution surface)
# ----------------------------------------------------------------------
def _persistent_worker(conn: Any) -> None:
    """Long-lived subprocess loop: recv a dispatch, run it, send the record.

    A dispatch is ``{"spec": {...}, "deadline": d, "verify": b}``;
    ``None`` asks the worker to exit.  The spec runs under its
    remaining-deadline budget (see :func:`repro.engine.tasks.run_task`).
    """
    while True:
        try:
            message = conn.recv()
        except (EOFError, OSError):
            break
        if message is None:
            break
        record = _guarded_run(
            TaskSpec.from_dict(message["spec"]),
            verify=message["verify"],
            deadline=message["deadline"],
        )
        try:
            conn.send(record)
        except (BrokenPipeError, OSError):
            break
    conn.close()


class _PoolWorker:
    """One persistent worker process plus its command pipe."""

    __slots__ = ("proc", "conn")

    def __init__(self, ctx: Any) -> None:
        self.conn, child_conn = ctx.Pipe(duplex=True)
        self.proc = ctx.Process(
            target=_persistent_worker, args=(child_conn,), daemon=True
        )
        self.proc.start()
        child_conn.close()

    def kill(self) -> None:
        """Tear the worker down hard (used after a hang or crash)."""
        try:
            self.conn.close()
        except OSError:
            pass
        if self.proc.is_alive():
            self.proc.kill()
        self.proc.join(timeout=1.0)


class PersistentPool:
    """A fixed-size pool of long-lived worker processes.

    The pool keeps ``workers`` subprocesses alive across dispatches, so
    its callers — the :mod:`repro.serve` service and :func:`run_tasks`
    — pay process spawn and import cost once, not per task.
    :meth:`submit` is **thread-safe and blocking**: any number of
    dispatcher threads may call it concurrently; each call checks out
    one idle worker (blocking until one frees up), ships one spec in a
    single round trip, and returns its record.

    A dispatch that overruns ``timeout`` gets its worker killed
    (record: ``timeout``), a worker
    that dies mid-dispatch is detected as a closed pipe (record:
    ``crashed``), and either way a fresh worker replaces the dead one,
    so pool capacity never decays.  With ``workers=0`` dispatches run
    inline in the calling thread — no subprocesses, no kill-based
    containment (cooperative budgets only), which is what deterministic
    tests want.
    """

    def __init__(
        self,
        workers: int = 1,
        tracer: Tracer = NULL_TRACER,
    ) -> None:
        if workers < 0:
            raise ValueError("workers must be >= 0")
        self.workers = workers
        self.tracer = tracer
        self._closed = False
        self._lock = threading.Lock()
        self._idle: "queue_mod.Queue[_PoolWorker]" = queue_mod.Queue()
        self._ctx = multiprocessing.get_context(
            "fork"
            if "fork" in multiprocessing.get_all_start_methods()
            else "spawn"
        )
        for _ in range(workers):
            self._idle.put(_PoolWorker(self._ctx))

    # ------------------------------------------------------------------
    def submit(
        self,
        spec: TaskSpec,
        deadline: Optional[float] = None,
        verify: bool = False,
        timeout: Optional[float] = None,
    ) -> Dict[str, Any]:
        """Run one spec on one worker and return its record.

        ``deadline`` is the spec's remaining wall-clock seconds (None =
        unlimited), forwarded into the task's cooperative budget.
        ``timeout`` bounds the dispatch from outside: on overrun the
        worker is killed and the record is ``timeout``.
        """
        if self._closed:
            raise RuntimeError("pool is closed")
        if self.workers == 0:
            return _guarded_run(spec, verify=verify, deadline=deadline)
        worker = self._idle.get()
        try:
            worker.conn.send({
                "spec": spec.as_dict(),
                "deadline": deadline,
                "verify": verify,
            })
            if worker.conn.poll(timeout):
                record = worker.conn.recv()
                self._idle.put(worker)
                return record
            # overrun: kill, replace, synthesize a timeout record
            self.tracer.count("engine.timeouts")
            worker.kill()
            self._respawn()
            return _failure_record(
                spec, "timeout",
                error=f"persistent-pool dispatch exceeded {timeout}s",
                seconds=timeout or 0.0,
            )
        except (EOFError, BrokenPipeError, OSError):
            self.tracer.count("engine.crashes")
            worker.kill()
            self._respawn()
            return _failure_record(
                spec, "crashed", error="worker process died mid-dispatch",
            )

    def _respawn(self) -> None:
        """Replace a killed worker so capacity never decays."""
        with self._lock:
            if not self._closed:
                self._idle.put(_PoolWorker(self._ctx))

    def close(self) -> None:
        """Shut every idle worker down (idempotent).

        Callers are expected to stop submitting first; workers still
        checked out by an in-flight :meth:`submit` are reaped when that
        dispatch returns them (their send fails once the process exits).
        """
        with self._lock:
            if self._closed:
                return
            self._closed = True
        while True:
            try:
                worker = self._idle.get_nowait()
            except queue_mod.Empty:
                break
            try:
                worker.conn.send(None)
            except (BrokenPipeError, OSError):
                pass
            worker.proc.join(timeout=1.0)
            worker.kill()

    def __enter__(self) -> "PersistentPool":
        """Context-manager entry: the pool itself."""
        return self

    def __exit__(self, *exc: Any) -> None:
        """Context-manager exit: close the pool."""
        self.close()
