"""Live-interval substrate: model, linear scan, interval coalescing.

The graph side of the paper gets a companion here — the live-*interval*
view of allocation and coalescing that linear scan and its descendants
use.  :mod:`repro.intervals.model` numbers program points (RPO ×
instruction index, φ-aware) and compresses per-variable liveness into
closed ranges with holes, with the guarantee that the maximum interval
overlap equals Maxlive and that interference implies interval
intersection.  :mod:`repro.intervals.linear_scan` builds the classic
Poletto and the hole-aware second-chance allocators on top (spilling
via ``spill_everywhere``); :mod:`repro.intervals.coalesce` merges
copy-related values whose intervals do not intersect.  Everything is
translation-validated by the ``allocation-intervals`` analysis pass
(``INTV`` diagnostics) rather than trusted.  See ``docs/INTERVALS.md``.
"""

from .coalesce import function_interval_coalesce, interval_coalesce
from .linear_scan import VARIANTS, LinearScanResult, linear_scan_allocate
from .model import (
    IntervalSet,
    LiveInterval,
    ProgramPoints,
    Ranges,
    build_intervals,
    interval_stats,
    merge_ranges,
    number_points,
    ranges_intersect,
)

__all__ = [
    "Ranges",
    "ProgramPoints",
    "LiveInterval",
    "IntervalSet",
    "number_points",
    "ranges_intersect",
    "merge_ranges",
    "build_intervals",
    "interval_stats",
    "VARIANTS",
    "LinearScanResult",
    "linear_scan_allocate",
    "interval_coalesce",
    "function_interval_coalesce",
]
