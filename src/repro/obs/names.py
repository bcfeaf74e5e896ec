"""Canonical counter names for kernel work accounting.

Kernel work comparisons (see ``docs/PERFORMANCE.md``) only mean
something if every layer agrees on what "work" is called.  These
constants are the single source of truth for the kernel-work
counters; the benchmark snapshot harness (:mod:`repro.bench.snapshot`),
the dense kernels (:mod:`repro.graphs.dense`), the test suite's
dict-of-set reference kernels, and the service ``/metrics`` endpoint
all import them instead of spelling the strings out.

Accounting convention (documented in ``docs/OBSERVABILITY.md``): both
counters record the *size of the data consumed* by an operation —
order-independent and therefore exactly reproducible across runs —
never data-dependent early exits.

* ``EDGES_SCANNED`` — per-element work: one unit for each adjacency
  element a kernel touches (a neighbour visited, a live variable added
  to an edge, a set entry inserted).
* ``WORDS_MERGED`` — per-word work: one unit for each machine word
  (:data:`repro.graphs.dense.WORD_BITS` bits) processed by a bitset
  operation (AND/OR/ANDNOT or popcount over a full mask).
* ``RANGES_BUILT`` — per-output work of the live-interval builders
  (:mod:`repro.intervals.model`): one unit for each ``(variable,
  program point)`` liveness unit emitted into an interval.  It
  measures the *output* size, so any builder of the same intervals
  counts the same value, while the other two measure the *input*
  consumed.
"""

from __future__ import annotations

#: Counter name for per-element adjacency work.
EDGES_SCANNED = "kernel.edges_scanned"

#: In-memory LRU tier: record answered without touching the disk.
CACHE_MEMORY_HITS = "cache.memory.hits"

#: In-memory LRU tier: key absent (the file tier is consulted next).
CACHE_MEMORY_MISSES = "cache.memory.misses"

#: In-memory LRU tier: entry dropped to stay within capacity.
CACHE_MEMORY_EVICTIONS = "cache.memory.evictions"

#: File tier: record found in the content-addressed store.
CACHE_FILE_HITS = "cache.file.hits"

#: File tier: key absent (the task has to execute).
CACHE_FILE_MISSES = "cache.file.misses"

#: Every cache-tier counter, in the order reports list them.
CACHE_TIER_COUNTERS = (
    CACHE_MEMORY_HITS,
    CACHE_MEMORY_MISSES,
    CACHE_MEMORY_EVICTIONS,
    CACHE_FILE_HITS,
    CACHE_FILE_MISSES,
)

#: Counter name for per-word bitset work (dense kernels).
WORDS_MERGED = "kernel.words_merged"

#: Counter name for live-interval units emitted by interval builders.
RANGES_BUILT = "kernel.ranges_built"

#: Every kernel-work counter, in the order reports list them.
KERNEL_WORK_COUNTERS = (EDGES_SCANNED, WORDS_MERGED, RANGES_BUILT)
