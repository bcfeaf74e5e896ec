"""Fault-tolerant worker pool: per-task timeout, retry, crash isolation.

:class:`PersistentPool` keeps ``workers`` **long-lived** subprocesses
and runs one :class:`~repro.engine.tasks.TaskSpec` per dispatch, so
spawn and import cost is paid once per pool, not per task.  Both the
service (:mod:`repro.serve`) and batch campaigns (:func:`run_tasks`)
execute on it through one coroutine, :meth:`PersistentPool.run`, with
one set of failure semantics:

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

A dispatch never leaves the event loop: the worker's pipe is awaited
with ``loop.add_reader``, so neither the service nor a campaign needs
a dispatcher thread.

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
import sys
import threading
import traceback
from collections import deque
from typing import (
    TYPE_CHECKING,
    Any,
    Callable,
    Deque,
    Dict,
    List,
    Optional,
    Sequence,
)

from ..budget import BudgetExceeded
from ..obs import NULL_TRACER, Tracer
from .tasks import ENGINE_VERSION, TaskSpec, run_task, task_hash

if TYPE_CHECKING:
    import asyncio

# The coroutines below import asyncio where they run: importing it
# loads ssl too (≈3 MB of RSS), which in-process callers of the engine
# (run_task, the benchmarks) would otherwise pay without using a loop.

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
    records (deterministic failures; never retried).

    The record's ``error`` is one line, ``ExcType: message``, since
    the service returns it to clients; the traceback goes to this
    process's stderr, the service's log.
    """
    try:
        return run_task(spec, verify=verify, deadline=deadline)
    except BudgetExceeded:  # run_task already handles this; belt+braces
        raise
    except Exception as exc:
        print(f"task {task_hash(spec)} raised:", file=sys.stderr)
        traceback.print_exc(limit=20, file=sys.stderr)
        message = " ".join(str(exc).splitlines())
        return _failure_record(
            spec, "error", error=f"{type(exc).__name__}: {message}"
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

    The dispatches run under :func:`asyncio.run`, one dispatcher
    coroutine per worker, so this must not be called from a running
    event loop.
    """
    import asyncio

    if workers < 0:
        raise ValueError("workers must be >= 0")

    async def settle(pool: PersistentPool, spec: TaskSpec) -> Dict[str, Any]:
        attempt = 1
        record = await pool.run(spec, verify=verify, timeout=timeout)
        while record["status"] in RETRYABLE_STATUSES and attempt <= retries:
            tracer.count("engine.retries")
            await asyncio.sleep(backoff * attempt)
            attempt += 1
            record = await pool.run(spec, verify=verify, timeout=timeout)
        record["attempts"] = attempt
        tracer.count("engine.tasks_run")
        if record["status"] == "error":
            tracer.count("engine.errors")
        if on_record is not None:
            on_record(record)
        return record

    async def dispatch_all(pool: PersistentPool) -> List[Dict[str, Any]]:
        records: List[Dict[str, Any]] = [{} for _ in specs]
        pending = iter(enumerate(specs))

        async def dispatcher() -> None:
            for i, spec in pending:
                records[i] = await settle(pool, spec)

        await asyncio.gather(
            *(dispatcher() for _ in range(max(pool.workers, 1)))
        )
        return records

    with PersistentPool(min(workers, len(specs)), tracer=tracer) as pool:
        return asyncio.run(dispatch_all(pool))


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

    async def receive(self, timeout: Optional[float]) -> Dict[str, Any]:
        """Await the worker's next record on the running loop.

        Raises :exc:`asyncio.TimeoutError` when nothing arrives within
        ``timeout`` seconds and :exc:`EOFError` when the worker died.
        """
        import asyncio

        loop = asyncio.get_running_loop()
        readable = loop.create_future()
        fd = self.conn.fileno()
        loop.add_reader(fd, _wake, readable)
        try:
            await asyncio.wait_for(readable, timeout)
        finally:
            loop.remove_reader(fd)
        record: Dict[str, Any] = self.conn.recv()
        return record

    def kill(self) -> None:
        """Tear the worker down hard (used after a hang or crash)."""
        try:
            self.conn.close()
        except OSError:
            pass
        if self.proc.is_alive():
            self.proc.kill()
        self.proc.join(timeout=1.0)


def _wake(future: "asyncio.Future[None]") -> None:
    """Reader callback: resolve ``future`` once (the fd stays readable
    until the record is read, so the callback may fire again)."""
    if not future.done():
        future.set_result(None)


class PersistentPool:
    """A fixed-size pool of long-lived worker processes.

    The pool keeps ``workers`` subprocesses alive across dispatches, so
    its callers — the :mod:`repro.serve` service and :func:`run_tasks`
    — pay process spawn and import cost once, not per task.
    :meth:`run` is a coroutine: each call checks out one idle worker
    (waiting on the event loop, first come first served, when none is
    free), ships one spec, and awaits the record on the worker's pipe.
    Any number of coroutines may call it concurrently; a pool may serve
    several event loops one after another, but only one at a time.

    A dispatch that overruns ``timeout`` gets its worker killed
    (record: ``timeout``), a worker
    that dies mid-dispatch is detected as a closed pipe (record:
    ``crashed``), and a cancelled dispatch kills its worker rather than
    leave an unread record in the pipe; either way a fresh worker
    replaces the dead one, so pool capacity never decays.  With
    ``workers=0`` dispatches run inline in the calling thread
    (:meth:`run_inline`) — no subprocesses, no kill-based containment
    (cooperative budgets only), which is what deterministic tests want.
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
        # guards _closed and _idle against a close() from another thread
        self._lock = threading.Lock()
        self._ctx = multiprocessing.get_context(
            "fork"
            if "fork" in multiprocessing.get_all_start_methods()
            else "spawn"
        )
        self._idle: List[_PoolWorker] = [
            _PoolWorker(self._ctx) for _ in range(workers)
        ]
        self._waiters: Deque["asyncio.Future[_PoolWorker]"] = deque()

    # ------------------------------------------------------------------
    async def run(
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
        worker is killed and the record is ``timeout``.  With
        ``workers=0`` the spec runs inline, blocking the loop.
        """
        import asyncio

        if self._closed:
            raise RuntimeError("pool is closed")
        if self.workers == 0:
            return self.run_inline(spec, deadline, verify)
        worker = await self._checkout()
        try:
            worker.conn.send({
                "spec": spec.as_dict(),
                "deadline": deadline,
                "verify": verify,
            })
            record = await worker.receive(timeout)
        except asyncio.TimeoutError:
            self.tracer.count("engine.timeouts")
            self._replace(worker)
            return _failure_record(
                spec, "timeout",
                error=f"persistent-pool dispatch exceeded {timeout}s",
                seconds=timeout or 0.0,
            )
        except (EOFError, OSError):
            self.tracer.count("engine.crashes")
            self._replace(worker)
            return _failure_record(
                spec, "crashed", error="worker process died mid-dispatch",
            )
        except BaseException:  # cancelled: the record may still arrive
            self._replace(worker)
            raise
        self._checkin(worker)
        return record

    def run_inline(
        self,
        spec: TaskSpec,
        deadline: Optional[float] = None,
        verify: bool = False,
    ) -> Dict[str, Any]:
        """Run one spec in the calling thread (the ``workers=0`` path
        of :meth:`run`, callable off-loop through a thread)."""
        if self._closed:
            raise RuntimeError("pool is closed")
        return _guarded_run(spec, verify=verify, deadline=deadline)

    async def _checkout(self) -> _PoolWorker:
        """An idle worker, waiting on the loop while none is free."""
        import asyncio

        with self._lock:
            if self._idle:
                return self._idle.pop()
        waiter: "asyncio.Future[_PoolWorker]" = (
            asyncio.get_running_loop().create_future()
        )
        self._waiters.append(waiter)
        try:
            return await waiter
        except asyncio.CancelledError:
            # handed a worker just before the cancel landed: pass it on
            if waiter.done() and not waiter.cancelled():
                self._checkin(waiter.result())
            raise

    def _checkin(self, worker: _PoolWorker) -> None:
        """Hand a free worker to the oldest live waiter, or park it; a
        closed pool retires it instead."""
        with self._lock:
            if not self._closed:
                while self._waiters:
                    waiter = self._waiters.popleft()
                    if not waiter.done():
                        waiter.set_result(worker)
                        return
                self._idle.append(worker)
                return
        worker.kill()

    def _replace(self, worker: _PoolWorker) -> None:
        """Kill a hung, dead or abandoned worker and check in a fresh
        one, so capacity never decays."""
        worker.kill()
        if not self._closed:
            self._checkin(_PoolWorker(self._ctx))

    def close(self) -> None:
        """Shut every idle worker down (idempotent).

        Callers are expected to stop dispatching first; a worker still
        checked out by an in-flight :meth:`run` is killed when that
        dispatch checks it back in.
        """
        with self._lock:
            if self._closed:
                return
            self._closed = True
            idle, self._idle = self._idle, []
        for worker in idle:
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
