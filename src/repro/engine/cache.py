"""Content-addressed on-disk result store for campaign tasks.

Records are the JSON dicts produced by :func:`repro.engine.tasks.run_task`
(or synthesized by the pool for timeouts/crashes), keyed by
:func:`repro.engine.tasks.task_hash` — which already folds in the
engine code version, so a version bump naturally invalidates every
entry without any explicit migration.

Layout (two-level fan-out keeps directories small)::

    <root>/
      ab/abcdef0123456789.json      # one record per task key
      <name>.summary.json           # campaign summary artifacts

Writes are atomic (a *uniquely named* temp file + ``os.replace``) and
safe under **concurrent writers**: any number of campaign workers and
:mod:`repro.serve` request handlers may share one cache directory, each
write lands whole or not at all, and the last replace wins.  An
interrupted run never leaves a half-written record; corrupt or
unreadable entries read back as misses and are simply re-executed.

Three companions scale the store up and out:

* :class:`MemoryCache` — a size-bounded in-process LRU tier holding
  deserialized records, with exact hit/miss/eviction counters
  (:data:`repro.obs.names.CACHE_TIER_COUNTERS`);
* :class:`TieredCache` — the serving composition: memory in front of
  the file store, promoting file hits into memory so repeats skip the
  filesystem entirely;
* :func:`compact_cache` — **eviction and compaction** of the file
  store (``repro cache compact``), least-recently-written first by
  file mtime, so a content-addressed directory stays bounded.
"""

from __future__ import annotations

import json
import os
import threading
from collections import OrderedDict
from pathlib import Path
from typing import Any, Dict, Iterator, List, Optional, Tuple

from ..obs import (
    CACHE_FILE_HITS,
    CACHE_FILE_MISSES,
    CACHE_MEMORY_EVICTIONS,
    CACHE_MEMORY_HITS,
    CACHE_MEMORY_MISSES,
    NULL_TRACER,
    Tracer,
)

__all__ = ["ResultCache", "MemoryCache", "TieredCache", "compact_cache"]

#: how :meth:`ResultCache.put` opens its temp file: create it, or fail
#: when a file of that name exists
_TMP_FLAGS = os.O_WRONLY | os.O_CREAT | os.O_EXCL


class ResultCache:
    """A directory of JSON task records addressed by task hash."""

    def __init__(self, root: "Path | str") -> None:
        self.root = Path(root)
        # get/put run on the service's event loop: plain string joins
        # keep pathlib out of each call
        self._root = str(self.root)

    def path(self, key: str) -> Path:
        """Where the record for ``key`` lives (may not exist yet)."""
        return Path(self._file(key))

    def _file(self, key: str) -> str:
        """:meth:`path` as a plain string."""
        return f"{self._root}/{key[:2]}/{key}.json"

    def get(self, key: str) -> Optional[Dict[str, Any]]:
        """The cached record, or None on miss *or* corrupt entry."""
        try:
            with open(self._file(key), "rb") as stream:
                record = json.loads(stream.read())
        except (OSError, ValueError):
            return None
        if not isinstance(record, dict) or record.get("key") != key:
            return None
        return record

    def put(self, key: str, record: Dict[str, Any]) -> bool:
        """Atomically write the record for ``key``; True iff an entry
        already existed (i.e. this put overwrote rather than inserted).

        The temp file name is unique per writer — ``.KEY.PID.TID.tmp``
        in the destination directory, opened with ``O_EXCL`` — so
        concurrent processes and threads writing the same key never
        interleave bytes: each finishes its own temp file and the
        ``os.replace`` calls serialize, last one winning with a complete
        record either way.  A temp file that already carries this
        writer's name was left by a dead writer (a reused pid), so it
        is unlinked and the open retried.  The overwrite report is
        best-effort under such races (it reflects whether the entry
        existed just before this writer's replace).  The record is
        encoded in one ``json.dumps`` call (compact, sorted keys, ASCII)
        before the temp file opens, and the shard directory is made only
        when the open finds it missing.
        """
        shard = f"{self._root}/{key[:2]}"
        path = f"{shard}/{key}.json"
        tmp = f"{shard}/.{key}.{os.getpid()}.{threading.get_ident()}.tmp"
        data = (json.dumps(record, sort_keys=True) + "\n").encode()
        try:
            fd = os.open(tmp, _TMP_FLAGS, 0o600)
        except FileNotFoundError:  # first record of this shard
            os.makedirs(shard, exist_ok=True)
            fd = os.open(tmp, _TMP_FLAGS, 0o600)
        except FileExistsError:  # left behind by a dead writer
            os.unlink(tmp)
            fd = os.open(tmp, _TMP_FLAGS, 0o600)
        try:
            with open(fd, "wb") as stream:
                stream.write(data)
            existed = os.path.exists(path)
            os.replace(tmp, path)
            return existed
        except BaseException:
            try:
                os.unlink(tmp)
            except OSError:
                pass
            raise

    def delete(self, key: str) -> bool:
        """Drop one record; True iff it existed."""
        try:
            os.unlink(self._file(key))
            return True
        except OSError:
            return False

    def keys(self) -> Iterator[str]:
        """All task keys currently stored, in key order."""
        for key, _path in self.entry_files():
            yield key

    def __len__(self) -> int:
        return sum(1 for _ in self.keys())

    def summary_path(self, name: str) -> Path:
        """Where a campaign's summary artifact is written."""
        return self.root / f"{name}.summary.json"

    def entry_files(self) -> Iterator[Tuple[str, Path]]:
        """``(key, path)`` for every stored record, in key order."""
        if not self.root.is_dir():
            return
        for shard in sorted(self.root.iterdir()):
            if not (shard.is_dir() and len(shard.name) == 2):
                continue
            for entry in sorted(shard.glob("*.json")):
                yield entry.stem, entry

    def stats(self) -> Dict[str, Any]:
        """Entry count and total stored bytes (one directory scan)."""
        entries = 0
        total = 0
        for _key, path in self.entry_files():
            try:
                total += path.stat().st_size
            except OSError:
                continue
            entries += 1
        return {"entries": entries, "bytes": total}


class MemoryCache:
    """A size-bounded in-process LRU tier over task records.

    ``get`` refreshes recency; ``put`` inserts (or refreshes) and
    evicts the least-recently-used entries beyond ``capacity``.  Every
    operation is counted on the tracer
    (:data:`repro.obs.names.CACHE_TIER_COUNTERS`), and the counts are
    exact — tests and the ``/metrics`` endpoint rely on
    hits + misses == lookups.

    Not thread-safe by itself; the service uses it from the event loop
    only, which serializes access.
    """

    def __init__(self, capacity: int = 1024,
                 tracer: Tracer = NULL_TRACER) -> None:
        if capacity < 1:
            raise ValueError("capacity must be >= 1")
        self.capacity = capacity
        self.tracer = tracer
        self._entries: "OrderedDict[str, Dict[str, Any]]" = OrderedDict()

    def get(self, key: str) -> Optional[Dict[str, Any]]:
        """The cached record (refreshing its recency), or None."""
        record = self._entries.get(key)
        if record is None:
            self.tracer.count(CACHE_MEMORY_MISSES)
            return None
        self._entries.move_to_end(key)
        self.tracer.count(CACHE_MEMORY_HITS)
        return record

    def put(self, key: str, record: Dict[str, Any]) -> None:
        """Insert or refresh; evict LRU entries beyond capacity."""
        self._entries[key] = record
        self._entries.move_to_end(key)
        while len(self._entries) > self.capacity:
            self._entries.popitem(last=False)
            self.tracer.count(CACHE_MEMORY_EVICTIONS)

    def delete(self, key: str) -> bool:
        """Drop one entry; True iff it was present."""
        return self._entries.pop(key, None) is not None

    def clear(self) -> None:
        """Drop every entry (counters are left alone)."""
        self._entries.clear()

    def keys(self) -> List[str]:
        """Keys from least- to most-recently used."""
        return list(self._entries)

    def __len__(self) -> int:
        return len(self._entries)

    def __contains__(self, key: str) -> bool:
        return key in self._entries


class TieredCache:
    """The serving cache composition: a :class:`MemoryCache` in front
    of the on-disk :class:`ResultCache`.

    ``get`` answers from memory when possible; a file-tier hit is
    *promoted* into memory so the next repeat skips the filesystem.
    ``put`` writes through to both tiers.  File-tier hit/miss counts
    land on the same tracer as the memory tier's, so tier hit rates
    are directly comparable.
    """

    def __init__(self, file: ResultCache, memory: MemoryCache,
                 tracer: Tracer = NULL_TRACER) -> None:
        self.file = file
        self.memory = memory
        self.tracer = tracer

    def get_memory(self, key: str) -> Optional[Dict[str, Any]]:
        """Probe only the in-memory tier (no filesystem access)."""
        return self.memory.get(key)

    def get_file(self, key: str) -> Optional[Dict[str, Any]]:
        """Probe only the file tier; a hit is promoted into memory."""
        record = self.file.get(key)
        if record is None:
            self.tracer.count(CACHE_FILE_MISSES)
            return None
        self.tracer.count(CACHE_FILE_HITS)
        self.memory.put(key, record)
        return record

    def get(self, key: str) -> Optional[Dict[str, Any]]:
        """Memory first, then the file store (with promotion)."""
        record = self.get_memory(key)
        if record is not None:
            return record
        return self.get_file(key)

    def put(self, key: str, record: Dict[str, Any]) -> bool:
        """Write through both tiers; True iff the file store had the
        key already (the :meth:`ResultCache.put` overwrite report)."""
        overwrote = self.file.put(key, record)
        self.memory.put(key, record)
        return overwrote

    def stats(self) -> Dict[str, Any]:
        """File-store stats plus the memory tier's occupancy."""
        stats = self.file.stats()
        stats["memory_entries"] = len(self.memory)
        stats["memory_capacity"] = self.memory.capacity
        return stats


def compact_cache(
    cache: ResultCache,
    max_entries: Optional[int] = None,
    max_bytes: Optional[int] = None,
) -> Dict[str, Any]:
    """Evict least-recently-written records until both bounds hold.

    Records are ordered by file mtime, key breaking ties, so the order
    needs no state beyond the directory itself: a rewritten record is
    young again, and records written by any process (pool workers,
    other shards) are ordered alike.  Deletes go through the cache, so
    a racing reader simply misses.  Returns what happened.
    """
    order: List[Tuple[float, str, int]] = []
    for key, path in cache.entry_files():
        try:
            stat = path.stat()
        except OSError:
            continue
        order.append((stat.st_mtime, key, stat.st_size))
    order.sort()
    before = len(order)
    before_bytes = sum(size for _mtime, _key, size in order)
    evicted: List[str] = []
    remaining = before
    remaining_bytes = before_bytes
    for _mtime, key, size in order:
        over_entries = max_entries is not None and remaining > max_entries
        over_bytes = max_bytes is not None and remaining_bytes > max_bytes
        if not (over_entries or over_bytes):
            break
        cache.delete(key)
        remaining -= 1
        remaining_bytes -= size
        evicted.append(key)
    return {
        "entries_before": before,
        "entries_after": remaining,
        "bytes_before": before_bytes,
        "bytes_after": remaining_bytes,
        "evicted": len(evicted),
        "evicted_keys": evicted,
    }
