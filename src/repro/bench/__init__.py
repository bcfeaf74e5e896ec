"""Performance-trajectory harness: pinned kernel snapshots.

``repro bench snapshot`` runs a fixed suite of dense kernels
(interference build, MCS, greedy colouring, live intervals, linear
scan, conservative coalescing) on fixed-seed instances and writes a
schema-versioned ``BENCH_<rev>.json``: wall-times plus the
*exact* :data:`~repro.obs.names.KERNEL_WORK_COUNTERS`.  Committed
snapshots form the repo's recorded perf trajectory; ``repro bench
compare`` is the regression gate CI runs against the committed
baseline.  See ``docs/PERFORMANCE.md``.
"""

from .snapshot import (
    BACKEND,
    SCHEMA_VERSION,
    TOLERANCE_DEFAULT,
    compare_snapshots,
    load_snapshot,
    pinned_suite,
    run_snapshot,
    write_snapshot,
)

__all__ = [
    "BACKEND",
    "SCHEMA_VERSION",
    "TOLERANCE_DEFAULT",
    "compare_snapshots",
    "load_snapshot",
    "pinned_suite",
    "run_snapshot",
    "write_snapshot",
]
