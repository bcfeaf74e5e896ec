"""Content-addressed on-disk result store for campaign tasks.

Records are the JSON dicts produced by :func:`repro.engine.tasks.run_task`
(or synthesized by the pool for timeouts/crashes), keyed by
:func:`repro.engine.tasks.task_hash` — which already folds in the
engine code version, so a version bump naturally invalidates every
entry without any explicit migration.

Layout: one append-only record log per directory, in the manner of
Bitcask (Sheehy & Smith, 2010)::

    <root>/
      records.log                   # "\\n<key>\\t<json>" per write
      records.lock                  # flock: puts shared, compaction exclusive
      <name>.summary.json           # campaign summary artifacts

A put appends one framed line with a single ``os.write`` on an
``O_APPEND`` descriptor that stays open, so a served cache miss creates
no file, and any number of campaign workers and :mod:`repro.serve`
processes may share one directory: each append lands whole, after every
earlier one.  The leading newline of a line isolates a torn tail (a
writer that died mid-write), so a torn line never hides a later one.
The last line for a key wins; an empty body is a delete.  Each instance
keeps a key directory in memory (key to offset and length of its last
line), built by one scan on first use and extended by scanning only the
bytes it has not seen; a get re-stats the log, reads the line with
``os.pread`` and checks that it decodes to a JSON object whose ``key``
is the key, so a torn or corrupt line reads back as a miss and is
simply re-executed.  Per-file entries of the earlier layout
(``??/<key>.json``) are not read: they are content-addressed, so they
recompute.

Three companions scale the store up and out:

* :class:`MemoryCache` — a size-bounded in-process LRU tier holding
  deserialized records, with exact hit/miss/eviction counters
  (:data:`repro.obs.names.CACHE_TIER_COUNTERS`);
* :class:`TieredCache` — the serving composition: memory in front of
  the file store, promoting file hits into memory so repeats skip the
  filesystem entirely;
* :func:`compact_cache` — **eviction and compaction** of the file
  store (``repro cache compact``): it rewrites the log without dead
  lines, least-recently-written records evicted first, under an
  exclusive ``flock`` that keeps every completed put.
"""

from __future__ import annotations

import fcntl
import json
import os
import tempfile
import threading
from collections import OrderedDict
from pathlib import Path
from typing import Any, Dict, Iterator, List, Optional

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

#: a key directory value packs a body's offset above its length
_SHIFT = 32
_LENGTH = (1 << _SHIFT) - 1

#: how many log bytes one scan step reads
_CHUNK = 1 << 20

_LOG_FLAGS = os.O_RDWR | os.O_APPEND | os.O_CLOEXEC


def _open_lock(path: str) -> int:
    """A descriptor on the lock file at ``path``, made if missing."""
    return os.open(path, os.O_RDWR | os.O_CREAT | os.O_CLOEXEC, 0o644)


def _index_lines(data: bytes, base: int, index: Dict[str, int]) -> None:
    """Enter the framed lines of ``data`` (log bytes from offset
    ``base``) into ``index``, later lines winning.  Bytes before the
    first newline, and a line without a tab, are skipped."""
    lines = data.split(b"\n")
    offset = base + len(lines[0]) + 1
    for line in lines[1:]:
        tab = line.find(b"\t")
        if tab >= 0:
            key = line[:tab].decode(errors="replace")
            length = len(line) - tab - 1
            if length:
                index[key] = (offset + tab + 1) << _SHIFT | length
            else:
                index.pop(key, None)
        offset += len(line) + 1


def _scan(fd: int, start: int, end: int, index: Dict[str, int]) -> int:
    """Index the log lines in bytes ``[start, end)`` of ``fd``, reading
    in chunks; return the offset where the last line starts.  That line
    may still be growing under a concurrent writer, so the next scan
    starts there again."""
    tail = b""
    base = start
    while start < end:
        chunk = os.pread(fd, min(_CHUNK, end - start), start)
        if not chunk:  # truncated under the scan
            break
        start += len(chunk)
        data = tail + chunk
        cut = data.rfind(b"\n")
        if cut > 0:
            _index_lines(data[:cut], base, index)
            base += cut
            data = data[cut:]
        tail = data
    _index_lines(tail, base, index)
    return base


class ResultCache:
    """JSON task records addressed by task hash, in one append-only log.

    An in-memory key directory maps each key to its last line.
    Thread-safe: the key directory and the descriptors are guarded by
    one lock.  Constructing an instance touches no file; the log is
    scanned on first use.
    """

    def __init__(self, root: "Path | str") -> None:
        self.root = Path(root)
        #: the record log (may not exist yet)
        self.log_path = self.root / "records.log"
        self._log = str(self.log_path)
        self._lock_path = str(self.root / "records.lock")
        self._mutex = threading.Lock()
        self._index: Dict[str, int] = {}
        self._fd = -1  # the log, read with pread and appended to
        self._lock_fd = -1
        self._ino = -1
        self._size = 0  # log bytes the index reflects
        self._scanned = 0  # where the next scan starts

    def __del__(self) -> None:
        for fd in (self._fd, self._lock_fd):
            if fd >= 0:
                os.close(fd)

    def _refresh(self) -> None:
        """Bring the key directory up to the log on disk: rebuild it
        when the log was replaced or shrank, else scan what it has not
        seen.  Caller holds the mutex."""
        try:
            size = os.stat(self._log)
        except FileNotFoundError:
            if self._fd >= 0:
                os.close(self._fd)
                self._fd, self._ino = -1, -1
            self._index.clear()
            self._size = self._scanned = 0
            return
        replaced = size.st_ino != self._ino
        if replaced:
            if self._fd >= 0:
                os.close(self._fd)
            try:
                self._fd = os.open(self._log, _LOG_FLAGS)
            except PermissionError:  # a log only its writer may append to
                self._fd = os.open(self._log, os.O_RDONLY | os.O_CLOEXEC)
            size = os.fstat(self._fd)
            self._ino = size.st_ino
        if replaced or size.st_size < self._size:
            self._index.clear()
            self._size = self._scanned = 0
        if size.st_size != self._size:
            self._scanned = _scan(self._fd, self._scanned, size.st_size,
                                  self._index)
            self._size = size.st_size

    def _append(self, key: str, body: bytes) -> bool:
        """Append ``key``'s line under the shared lock (an empty body
        deletes) and enter it in the key directory; True iff the key had
        an entry before."""
        head = f"\n{key}\t".encode()
        with self._mutex:
            if self._lock_fd < 0:
                os.makedirs(self.root, exist_ok=True)
                self._lock_fd = _open_lock(self._lock_path)
            fcntl.flock(self._lock_fd, fcntl.LOCK_SH)
            try:
                self._refresh()
                existed = key in self._index
                if self._fd < 0:
                    self._fd = os.open(self._log, _LOG_FLAGS | os.O_CREAT,
                                       0o644)
                    self._ino = os.fstat(self._fd).st_ino
                data = head + body
                if os.write(self._fd, data) != len(data):
                    raise OSError(f"short append to {self._log}")
                end = os.lseek(self._fd, 0, os.SEEK_CUR)
            finally:
                fcntl.flock(self._lock_fd, fcntl.LOCK_UN)
            start = end - len(data)
            if body:
                self._index[key] = (start + len(head)) << _SHIFT | len(body)
            else:
                self._index.pop(key, None)
            if start == self._size:  # nobody else appended in between
                self._size, self._scanned = end, start
            return existed

    def get(self, key: str) -> Optional[Dict[str, Any]]:
        """The cached record, or None on miss *or* corrupt entry."""
        with self._mutex:
            try:
                self._refresh()
                packed = self._index.get(key)
                if packed is None:
                    return None
                data = os.pread(self._fd, packed & _LENGTH, packed >> _SHIFT)
            except OSError:
                return None
        try:
            record = json.loads(data)
        except ValueError:
            return None
        if not isinstance(record, dict) or record.get("key") != key:
            return None
        return record

    def put(self, key: str, record: Dict[str, Any]) -> bool:
        """Append the record for ``key``; True iff an entry already
        existed (i.e. this put overwrote rather than inserted).

        The record is encoded in one ``json.dumps`` call (compact,
        sorted keys, ASCII) and appended as one line with one
        ``os.write``: no temp file, no rename, no directory.  The
        directory is made by the first put.  The overwrite report is
        best-effort under concurrent writers (it reflects the log as
        this instance last read it).
        """
        return self._append(key, json.dumps(record, sort_keys=True).encode())

    def delete(self, key: str) -> bool:
        """Drop one record (an empty line for its key); True iff it
        existed."""
        with self._mutex:
            self._refresh()
            if key not in self._index:
                return False
        self._append(key, b"")
        return True

    def keys(self) -> Iterator[str]:
        """All task keys currently stored, in key order."""
        with self._mutex:
            self._refresh()
            keys = sorted(self._index)
        return iter(keys)

    def __len__(self) -> int:
        with self._mutex:
            self._refresh()
            return len(self._index)

    def summary_path(self, name: str) -> Path:
        """Where a campaign's summary artifact is written."""
        return self.root / f"{name}.summary.json"

    def stats(self) -> Dict[str, Any]:
        """Entry count, the bytes of the live records, and the size of
        the log with its dead lines (``log_bytes``): a log far larger
        than its records is worth compacting."""
        with self._mutex:
            self._refresh()
            return {
                "entries": len(self._index),
                "bytes": sum(packed & _LENGTH
                             for packed in self._index.values()),
                "log_bytes": self._size,
            }


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
    """Evict least-recently-written records and drop dead log lines.

    Records are evicted, oldest first, until both bounds hold (sizes
    are record bytes, as ``stats()["bytes"]``).  Age is the log
    position of each key's last write, so a rewritten record is young
    again and records from any process are ordered alike.  The
    survivors, in that order, go to a temp log that replaces
    ``records.log`` while this call holds the exclusive ``flock`` on
    ``records.lock``; a put holds the shared lock while it checks the
    log's inode and appends, so a put that completed before the
    compaction is kept and one that follows lands in the new log.
    Returns what happened.
    """
    index: Dict[str, int] = {}
    evicted: List[str] = []
    if cache.root.is_dir():
        lock = _open_lock(cache._lock_path)
        try:
            fcntl.flock(lock, fcntl.LOCK_EX)
            _compact_log(cache, index, evicted, max_entries, max_bytes)
        finally:
            os.close(lock)  # releases the flock
    before = len(index)
    before_bytes = sum(packed & _LENGTH for packed in index.values())
    evicted_bytes = sum(index[key] & _LENGTH for key in evicted)
    return {
        "entries_before": before,
        "entries_after": before - len(evicted),
        "bytes_before": before_bytes,
        "bytes_after": before_bytes - evicted_bytes,
        "evicted": len(evicted),
        "evicted_keys": evicted,
    }


def _compact_log(cache: ResultCache, index: Dict[str, int],
                 evicted: List[str], max_entries: Optional[int],
                 max_bytes: Optional[int]) -> None:
    """The body of :func:`compact_cache`, run under the exclusive lock:
    fill ``index`` from the whole log, append the evicted keys to
    ``evicted`` and replace the log with the survivors."""
    try:
        fd = os.open(cache._log, os.O_RDONLY | os.O_CLOEXEC)
    except FileNotFoundError:
        return
    try:
        _scan(fd, 0, os.fstat(fd).st_size, index)
        order = sorted(index.items(), key=lambda item: item[1])
        remaining = len(order)
        remaining_bytes = sum(packed & _LENGTH for _key, packed in order)
        for key, packed in order:
            over_entries = max_entries is not None and remaining > max_entries
            over_bytes = max_bytes is not None and remaining_bytes > max_bytes
            if not (over_entries or over_bytes):
                break
            evicted.append(key)
            remaining -= 1
            remaining_bytes -= packed & _LENGTH
        out, tmp = tempfile.mkstemp(prefix=".records.", suffix=".tmp",
                                    dir=cache.root)
        try:
            with open(out, "wb") as stream:
                for key, packed in order[len(evicted):]:
                    stream.write(f"\n{key}\t".encode())
                    stream.write(os.pread(fd, packed & _LENGTH,
                                          packed >> _SHIFT))
            os.replace(tmp, cache._log)
        except BaseException:
            os.unlink(tmp)
            raise
    finally:
        os.close(fd)
