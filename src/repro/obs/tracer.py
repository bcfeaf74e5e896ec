"""Span/counter tracer — the core of the observability layer.

A :class:`Tracer` collects three kinds of evidence while a strategy or
allocator runs:

* **counters** — monotonically accumulated named numbers
  (``tracer.count("moves.coalesced")``).  Dotted names group related
  counters; the conventions used by the library are documented in
  ``docs/OBSERVABILITY.md``.
* **spans** — nested wall-clock timers (``with tracer.span("phase")``).
  Spans aggregate by their slash-joined nesting path, so a phase
  entered many times costs one record, not one per entry.
* **events** — optional structured records for rare, interesting
  moments (``tracer.event("dissolve", cls=3)``), capped at
  ``max_events`` to bound memory (overflow is counted, not silently
  dropped).

Every instrumented function takes ``tracer=NULL_TRACER`` — a shared
no-op :class:`NullTracer` — so the default path pays only an attribute
lookup and an empty call per instrumentation point.  Hot inner loops
can hoist even that with ``if tracer.enabled: ...``.

:meth:`Tracer.report` returns a plain-``dict`` snapshot that is
JSON-serializable as-is; :mod:`repro.obs.export` renders it to JSON or
CSV and merges reports across instances.

A :class:`Tracer` is **safe to share across threads and asyncio
tasks**.  Each thread counts and times into its own accumulators, so
the common path takes no lock and no update is ever lost;
:meth:`Tracer.report`, :meth:`Tracer.spans` and :attr:`Tracer.counters`
merge the accumulators of every thread into one snapshot, and
:meth:`Tracer.absorb` folds a report into the calling thread's.  The
open-span path lives in a :class:`contextvars.ContextVar`, one per
tracer, so each asyncio task nests its spans on its own: coroutines that
overlap on one event loop never nest inside each other, and a thread
started by :func:`asyncio.to_thread` (which copies the caller's
context) nests its spans under the caller's open span.  This is what
lets the serving layer (:mod:`repro.serve`) thread one process-wide
tracer through every request handler and dispatch thread.
"""

from __future__ import annotations

import threading
import time
from contextvars import ContextVar
from types import TracebackType
from typing import Any, Callable, Dict, List, Optional, Type

__all__ = ["Tracer", "NullTracer", "NULL_TRACER"]

_get_ident = threading.get_ident
_perf_counter = time.perf_counter

#: A thread's span statistics: path -> [calls, seconds].
SpanStats = Dict[str, List[float]]


class _SpanHandle:
    """Context manager for one entry into a named span."""

    __slots__ = ("_tracer", "_name", "_path", "_token", "_t0")

    def __init__(self, tracer: "Tracer", name: str) -> None:
        self._tracer = tracer
        self._name = name

    def __enter__(self) -> "_SpanHandle":
        var = self._tracer._path
        parent = var.get()
        self._path = path = f"{parent}/{self._name}" if parent else self._name
        self._token = var.set(path)
        self._t0 = _perf_counter()
        return self

    def __exit__(
        self,
        exc_type: Optional[Type[BaseException]],
        exc: Optional[BaseException],
        tb: Optional[TracebackType],
    ) -> bool:
        elapsed = _perf_counter() - self._t0
        tracer = self._tracer
        tracer._path.reset(self._token)
        spans = tracer._span_shards.get(_get_ident())
        if spans is None:
            spans = tracer._shard(tracer._span_shards)
        stat = spans.get(self._path)
        if stat is None:
            spans[self._path] = [1, elapsed]
        else:
            stat[0] += 1
            stat[1] += elapsed
        return False


class Tracer:
    """Collects counters, nested span timings, and structured events."""

    enabled = True

    def __init__(self, max_events: int = 10_000) -> None:
        self.meta: Dict[str, Any] = {}
        # thread ident -> that thread's counters / span statistics; only
        # the owning thread writes its shard, readers merge snapshots
        self._count_shards: Dict[int, Dict[str, float]] = {}
        self._span_shards: Dict[int, SpanStats] = {}
        self._events: List[Dict[str, Any]] = []
        self._path: ContextVar[str] = ContextVar("repro.obs.span_path",
                                                 default="")
        self._max_events = max_events
        self._dropped_events = 0
        self._lock = threading.Lock()
        self._t0 = _perf_counter()

    def _shard(self, shards: Dict[int, Any]) -> Any:
        """The calling thread's shard of ``shards``, made on first use."""
        with self._lock:
            return shards.setdefault(_get_ident(), {})

    # ------------------------------------------------------------------
    def count(self, name: str, value: float = 1) -> None:
        """Add ``value`` (default 1) to the named counter."""
        counts = self._count_shards.get(_get_ident())
        if counts is None:
            counts = self._shard(self._count_shards)
        counts[name] = counts.get(name, 0) + value

    def span(self, name: str) -> "_SpanHandle":
        """A context manager timing one (possibly nested) phase.

        Re-entering the same name at the same nesting depth aggregates
        into a single record keyed by the slash-joined path.
        """
        return _SpanHandle(self, name)

    def event(self, name: str, **fields: Any) -> None:
        """Record a structured event (kept in order, capped)."""
        record: Dict[str, Any] = {
            "name": name,
            "at": round(_perf_counter() - self._t0, 6),
        }
        record.update(fields)
        with self._lock:
            if len(self._events) >= self._max_events:
                self._dropped_events += 1
                return
            self._events.append(record)

    # ------------------------------------------------------------------
    @property
    def counters(self) -> Dict[str, float]:
        """Every counter, summed over the threads that counted (a
        snapshot: a new dict per read)."""
        return _merged(self._count_shards, _add_count)

    def _spans_snapshot(self) -> SpanStats:
        return _merged(self._span_shards, _add_span)

    def spans(self) -> Dict[str, Dict[str, float]]:
        """Aggregated span statistics: path -> {calls, seconds}."""
        return {
            path: {"calls": int(calls), "seconds": seconds}
            for path, (calls, seconds) in self._spans_snapshot().items()
        }

    def events(self) -> List[Dict[str, Any]]:
        """The recorded events (a copy)."""
        with self._lock:
            return list(self._events)

    def report(self) -> Dict[str, Any]:
        """A JSON-serializable snapshot of everything collected.

        Schema (see docs/OBSERVABILITY.md)::

            {"counters": {name: number, ...},
             "spans": [{"name": path, "calls": n, "seconds": s}, ...],
             "events": [{"name": ..., "at": seconds, ...}, ...],
             "meta": {...},
             "dropped_events": n}
        """
        counters = self.counters
        spans = self._spans_snapshot()
        with self._lock:
            events = list(self._events)
            dropped = self._dropped_events
        return {
            "counters": {name: counters[name] for name in sorted(counters)},
            "spans": [
                {"name": path, "calls": int(stat[0]),
                 "seconds": round(stat[1], 6)}
                for path, stat in sorted(spans.items())
            ],
            "events": events,
            "meta": dict(self.meta),
            "dropped_events": dropped,
        }

    def absorb(self, report: Dict[str, Any]) -> None:
        """Merge a report dict's counters and spans into this tracer.

        The streaming counterpart of
        :func:`repro.obs.export.merged_report`: a long-running
        orchestrator (the campaign engine) absorbs each worker's report
        as it arrives instead of holding them all.  Events are *not*
        absorbed — they are per-run evidence with their own timelines —
        but dropped-event counts carry over.  The report lands in the
        calling thread's accumulators.  No-op on :class:`NullTracer`.
        """
        if not self.enabled:
            return
        ident = _get_ident()
        counts = self._count_shards.get(ident)
        if counts is None:
            counts = self._shard(self._count_shards)
        for name, value in report.get("counters", {}).items():
            _add_count(counts, name, value)
        spans = self._span_shards.get(ident)
        if spans is None:
            spans = self._shard(self._span_shards)
        for span in report.get("spans", []):
            _add_span(spans, span["name"], [span["calls"], span["seconds"]])
        dropped = report.get("dropped_events", 0)
        if dropped:
            with self._lock:
                self._dropped_events += dropped

    def clear(self) -> None:
        """Reset all collected data (the clock restarts too).

        Every thread's accumulators start afresh; spans open at the
        time keep their paths and record into the new ones when they
        close.
        """
        with self._lock:
            self._count_shards = {}
            self._span_shards = {}
            self.meta.clear()
            self._events.clear()
            self._dropped_events = 0
            self._t0 = _perf_counter()


def _add_count(merged: Dict[str, float], name: str, value: float) -> None:
    merged[name] = merged.get(name, 0) + value


def _add_span(merged: SpanStats, path: str, stat: List[float]) -> None:
    known = merged.get(path)
    if known is None:
        merged[path] = list(stat)
    else:
        known[0] += stat[0]
        known[1] += stat[1]


def _merged(shards: Dict[int, Dict[str, Any]],
            add: Callable[[Dict[str, Any], str, Any], None]) -> Dict[str, Any]:
    """The per-thread ``shards`` merged into one snapshot by ``add``.

    Each shard is copied before it is read (one C-level copy, so a
    thread writing its own shard meanwhile cannot disturb the walk); a
    lone shard's copy is the snapshot.  Span statistics of a lone shard
    stay the shard's own lists, read at once by the caller.
    """
    parts = list(shards.values())
    if len(parts) == 1:
        return parts[0].copy()
    merged: Dict[str, Any] = {}
    for part in parts:
        for name, value in part.copy().items():
            add(merged, name, value)
    return merged


class _NullSpan:
    """Shared reentrant no-op span."""

    __slots__ = ()

    def __enter__(self) -> "_NullSpan":
        return self

    def __exit__(
        self,
        exc_type: Optional[Type[BaseException]],
        exc: Optional[BaseException],
        tb: Optional[TracebackType],
    ) -> bool:
        return False


_NULL_SPAN = _NullSpan()


class NullTracer(Tracer):
    """A tracer that records nothing — the zero-overhead default.

    All instrumented code paths accept ``tracer=NULL_TRACER``; calling
    its methods is a no-op, and ``tracer.enabled`` is False so hot
    loops can skip instrumentation entirely.
    """

    enabled = False

    def count(self, name: str, value: float = 1) -> None:
        """No-op."""

    def span(self, name: str) -> "_NullSpan":  # type: ignore[override]
        """A shared no-op span handle."""
        return _NULL_SPAN

    def event(self, name: str, **fields: Any) -> None:
        """No-op."""


#: The process-wide no-op tracer used as the default everywhere.
NULL_TRACER = NullTracer()
