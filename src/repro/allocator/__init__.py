"""Register allocators built on the coalescing library.

Two designs from the paper's Section 1:

* :func:`chaitin_allocate` — the integrated Chaitin–Briggs loop
  (simplify / conservative-coalesce / freeze / spill / select, iterated
  after actual spills);
* :func:`ssa_allocate` — the decoupled two-phase allocator: spill to
  Maxlive ≤ k on strict SSA, then colour the (chordal) graph while
  coalescing with any strategy whose quotient is greedy-k-colourable,
  handed in as a callable (a ``run`` of
  :data:`repro.engine.tasks.STRATEGY_TABLE`).

A third family lives in :mod:`repro.intervals`:
:func:`repro.intervals.linear_scan_allocate` colours live *intervals*
instead of the graph (classic Poletto and hole-aware second-chance
variants), reusing this package's :func:`spill_everywhere` cost model
and rewriting.  It is deliberately not re-exported here — the interval
subsystem builds on :class:`AllocationResult`, so an eager re-export
would cycle — reach it via ``repro.intervals`` or ``repro allocate
--allocator linear-scan|second-chance``.
"""

from .spill import (
    is_memory_slot,
    memory_slots,
    spill_costs,
    spill_everywhere,
    strip_memory_slots,
)
from .chaitin import AllocationResult, chaitin_allocate
from .irc import IRCResult, irc_allocate, irc_coalescing_result
from .ssa_allocator import (
    SSAAllocationStats,
    spill_to_pressure,
    ssa_allocate,
)

__all__ = [
    "is_memory_slot",
    "memory_slots",
    "spill_costs",
    "spill_everywhere",
    "strip_memory_slots",
    "AllocationResult",
    "chaitin_allocate",
    "SSAAllocationStats",
    "spill_to_pressure",
    "ssa_allocate",
    "IRCResult",
    "irc_allocate",
    "irc_coalescing_result",
]
