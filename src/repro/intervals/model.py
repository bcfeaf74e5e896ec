"""Live intervals over a deterministic program-point numbering.

The paper's coalescing results live on *interference graphs*; the
companion spill-everywhere report and the linear-scan family live on
*live intervals*.  This module builds the bridge: a total order of
program points (RPO block order × instruction index, φ-aware) and, per
variable, the set of points at which it is live, compressed into
closed ranges with holes.

Point numbering.  Reachable blocks are laid out in reverse postorder;
a block with ``n`` instructions occupies ``n + 2`` consecutive points:

* ``entry(b)`` — the block-entry/φ point (φ-targets are defined here,
  in parallel);
* ``entry(b) + 1 + i`` — instruction ``i``;
* ``entry(b) + n + 1`` — the block-end point, carrying ``live_out``
  (where φ-arguments of successors are consumed).

Occupancy convention.  The variables *occupying* a point are the
pressure sets of :func:`repro.ir.liveness.maxlive`: ``live_out`` at
block end, ``live_after(i) ∪ defs(i)`` at instruction ``i`` (a value
dies at its last use, so an operand that dies can share a register
with the result — but a def always occupies its own point, even when
dead), and ``live_in ∪ φ-targets`` at block entry.  Three consequences
follow by construction and are enforced by the test suite and the
``allocation-intervals`` analysis pass:

* ``IntervalSet.max_overlap() == maxlive(func)`` — the interval and
  set views of register pressure agree exactly;
* Chaitin interference (a def live-along another variable, φ-defs in
  parallel) implies interval intersection, so interval *non*-overlap
  certifies graph *non*-adjacency — the soundness direction both the
  linear-scan allocators and interval coalescing rely on;
* the interval boundary sets reproduce ``compute_liveness`` exactly
  (``live_out`` covered at block end, ``live_in ∪ φ-targets`` at
  entry).

:func:`build_intervals` walks the dense liveness masks word-wise
(``WORDS_MERGED``), cuts ranges at the transitions between consecutive
points' occupancy masks, and counts the ``(variable, point)`` liveness
units as :data:`repro.obs.names.RANGES_BUILT`.  Each
:class:`LiveInterval` carries a bitmask of its points, so the
intersection tests of the allocators and checkers are one AND.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Iterator, List, Optional, Tuple

from ..graphs.dense import WORD_BITS
from ..ir.cfg import Function
from ..ir.instructions import Var
from ..ir.liveness import LivenessMasks, liveness_masks, maxlive
from ..obs import NULL_TRACER, RANGES_BUILT, WORDS_MERGED
from ..obs.tracer import Tracer

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
]

#: A sorted, pairwise-disjoint, non-adjacent list of closed point
#: ranges — the normal form :class:`LiveInterval` maintains.
Ranges = Tuple[Tuple[int, int], ...]


@dataclass(frozen=True)
class ProgramPoints:
    """The total order of program points of one function.

    ``order`` lists the reachable blocks in reverse postorder;
    ``entry`` maps each to its block-entry point and ``sizes`` to its
    instruction count.  The numbering is fully determined by the CFG,
    so equal functions get equal numberings.
    """

    order: Tuple[str, ...]
    entry: Dict[str, int]
    sizes: Dict[str, int]
    total: int

    def block_entry(self, name: str) -> int:
        """The φ/entry point of block ``name``."""
        return self.entry[name]

    def instr_point(self, name: str, index: int) -> int:
        """The point of instruction ``index`` of block ``name``."""
        if not 0 <= index < self.sizes[name]:
            raise IndexError(
                f"block {name} has {self.sizes[name]} instructions, "
                f"no index {index}"
            )
        return self.entry[name] + 1 + index

    def block_end(self, name: str) -> int:
        """The block-end (``live_out``) point of block ``name``."""
        return self.entry[name] + self.sizes[name] + 1

    def describe(self, point: int) -> str:
        """Human-readable location of ``point`` (for diagnostics)."""
        for name in self.order:
            end = self.block_end(name)
            if point > end:
                continue
            offset = point - self.entry[name]
            if offset == 0:
                return f"{name}:entry"
            if point == end:
                return f"{name}:end"
            return f"{name}[{offset - 1}]"
        return f"<point {point}>"


@dataclass(frozen=True)
class LiveInterval:
    """One variable's live interval: sorted disjoint closed ranges.

    ``ranges`` is a tuple of ``(start, end)`` point pairs, ascending,
    pairwise disjoint and non-adjacent — gaps between ranges are the
    interval's *holes* (the hole-aware second-chance allocator packs
    other intervals into them).  ``mask`` is derived from ``ranges``:
    bit ``p`` is set iff the variable is live at point ``p``, so
    intersection is one AND.
    """

    var: Var
    ranges: Tuple[Tuple[int, int], ...]
    mask: int = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        object.__setattr__(self, "mask", sum(
            (1 << (end + 1)) - (1 << start) for start, end in self.ranges
        ))

    @property
    def start(self) -> int:
        """First live point (the envelope's left edge)."""
        return self.ranges[0][0]

    @property
    def end(self) -> int:
        """Last live point (the envelope's right edge)."""
        return self.ranges[-1][1]

    @property
    def num_ranges(self) -> int:
        """Number of maximal contiguous live ranges."""
        return len(self.ranges)

    @property
    def holes(self) -> int:
        """Number of gaps between ranges (lifetime holes)."""
        return len(self.ranges) - 1

    def covers(self, point: int) -> bool:
        """True iff the variable is live at ``point``."""
        return point >= 0 and bool(self.mask >> point & 1)

    def intersects(self, other: "LiveInterval") -> bool:
        """True iff some point is covered by both intervals.

        Hole-aware: envelopes may overlap while the ranges do not —
        that is exactly the case interval coalescing and second-chance
        packing exploit.  One AND of the point masks; agrees with
        :func:`ranges_intersect` on the ranges.
        """
        return bool(self.mask & other.mask)


def ranges_intersect(a: Ranges, b: Ranges) -> bool:
    """Two-pointer intersection test for sorted disjoint range lists."""
    i = j = 0
    while i < len(a) and j < len(b):
        a_start, a_end = a[i]
        b_start, b_end = b[j]
        if a_end < b_start:
            i += 1
        elif b_end < a_start:
            j += 1
        else:
            return True
    return False


def merge_ranges(a: Ranges, b: Ranges) -> Ranges:
    """Union of two sorted disjoint range lists, renormalized.

    Adjacent ranges (``end + 1 == start``) are fused so the result
    keeps the :class:`LiveInterval` normal form.
    """
    merged: List[Tuple[int, int]] = []
    i = j = 0
    while i < len(a) or j < len(b):
        if j >= len(b) or (i < len(a) and a[i] <= b[j]):
            nxt = a[i]
            i += 1
        else:
            nxt = b[j]
            j += 1
        if merged and nxt[0] <= merged[-1][1] + 1:
            merged[-1] = (merged[-1][0], max(merged[-1][1], nxt[1]))
        else:
            merged.append(nxt)
    return tuple(merged)


@dataclass(frozen=True)
class IntervalSet:
    """All live intervals of one function plus its point numbering;
    never changed once built, so :meth:`max_overlap` sweeps once."""

    points: ProgramPoints
    intervals: Dict[Var, LiveInterval]

    def __len__(self) -> int:
        return len(self.intervals)

    def __iter__(self) -> Iterator[LiveInterval]:
        for var in sorted(self.intervals):
            yield self.intervals[var]

    def __contains__(self, var: Var) -> bool:
        return var in self.intervals

    def __getitem__(self, var: Var) -> LiveInterval:
        return self.intervals[var]

    def max_overlap(self) -> int:
        """Maximum number of intervals live at any single point.

        Event sweep over range endpoints (:func:`_sweep`), run at most
        once per set; by the occupancy convention this equals
        :func:`repro.ir.liveness.maxlive` exactly.
        """
        if "_max_overlap" not in self.__dict__:
            object.__setattr__(self, "_max_overlap", _sweep(self))
        return self.__dict__["_max_overlap"]


def _sweep(iset: IntervalSet) -> int:
    """Maximum number of ``iset``'s intervals live at any single point."""
    events: List[Tuple[int, int]] = []
    for interval in iset.intervals.values():
        for start, end in interval.ranges:
            events.append((start, 1))
            events.append((end + 1, -1))
    events.sort()
    best = depth = 0
    for _, delta in events:
        depth += delta
        if depth > best:
            best = depth
    return best


def number_points(func: Function) -> ProgramPoints:
    """Number the reachable blocks' program points (RPO layout)."""
    order = tuple(func.reverse_postorder())
    entry: Dict[str, int] = {}
    sizes: Dict[str, int] = {}
    next_point = 0
    for name in order:
        entry[name] = next_point
        sizes[name] = len(func.blocks[name].instrs)
        next_point += sizes[name] + 2
    return ProgramPoints(order=order, entry=entry, sizes=sizes, total=next_point)


def build_intervals(
    func: Function,
    tracer: Tracer = NULL_TRACER,
    liveness: Optional[LivenessMasks] = None,
) -> IntervalSet:
    """Build live intervals from the dense liveness masks.

    One backward walk per block over ``liveness_masks`` output, all
    occupancy sets held as int bitmasks.  Points are then visited in
    ascending order and ranges come from the transitions between
    consecutive occupancy masks: ``mask & ~prev`` opens a range at the
    point, ``prev & ~mask`` closes one at the point before, so the work
    is per range, not per ``(variable, point)``.  ``WORDS_MERGED``
    counts the word-wise mask operations, ``RANGES_BUILT`` the
    ``(variable, point)`` liveness units (each point's popcount); both
    are summed locally and counted once per call.
    ``liveness`` is the function's ``liveness_masks`` result, if the
    caller already solved it.
    """
    variables, _, out_masks = liveness or liveness_masks(func, tracer=tracer)
    points = number_points(func)
    index = {var: i for i, var in enumerate(variables)}
    words = max(1, (len(variables) + WORD_BITS - 1) // WORD_BITS)
    counting = tracer.enabled
    # per instruction: occupancy OR, transfer ANDNOT + OR; per block:
    # entry OR plus the block-end mask copy.  Summed, counted once.
    merged = 0
    units = 0
    starts: List[List[int]] = [[] for _ in variables]
    ends: List[List[int]] = [[] for _ in variables]
    prev = 0
    for name in points.order:
        block = func.blocks[name]
        # occupancy per point, built backward from live_out
        occupancy: List[int] = [out_masks[name]]
        live = out_masks[name]
        for i in range(len(block.instrs) - 1, -1, -1):
            instr = block.instrs[i]
            def_mask = 0
            for var in instr.defs:
                def_mask |= 1 << index[var]
            use_mask = 0
            for var in instr.uses:
                use_mask |= 1 << index[var]
            occupancy.append(live | def_mask)
            live = (live & ~def_mask) | use_mask
        phi_mask = 0
        for phi in block.phis:
            phi_mask |= 1 << index[phi.target]
        occupancy.append(live | phi_mask)
        merged += (3 * len(block.instrs) + 2) * words
        # the block's points, entry to end, are the next ones in order
        point = points.block_entry(name)
        for mask in reversed(occupancy):
            if mask != prev:
                opened = mask & ~prev
                while opened:
                    low = opened & -opened
                    starts[low.bit_length() - 1].append(point)
                    opened ^= low
                closed = prev & ~mask
                while closed:
                    low = closed & -closed
                    ends[low.bit_length() - 1].append(point - 1)
                    closed ^= low
                prev = mask
            if counting:
                units += mask.bit_count()
            point += 1
    if counting:
        tracer.count(WORDS_MERGED, merged)
        if units:
            tracer.count(RANGES_BUILT, units)
    while prev:
        low = prev & -prev
        ends[low.bit_length() - 1].append(points.total - 1)
        prev ^= low
    intervals: Dict[Var, LiveInterval] = {}
    for i, var in enumerate(variables):
        if starts[i]:
            intervals[var] = LiveInterval(
                var=var, ranges=tuple(zip(starts[i], ends[i]))
            )
    return IntervalSet(points=points, intervals=intervals)


def interval_stats(func: Function, tracer: Tracer = NULL_TRACER) -> Dict[str, int]:
    """Summary statistics of a function's live intervals.

    Returns ``intervals`` (variable count), ``ranges``, ``holes``,
    ``max_overlap`` (== Maxlive), ``maxlive`` (the set-view pressure,
    for cross-checking) and ``points`` (the numbering's size) — the
    payload behind ``repro info``'s interval columns.
    """
    iset = build_intervals(func, tracer=tracer)
    return {
        "intervals": len(iset),
        "ranges": sum(iv.num_ranges for iv in iset),
        "holes": sum(iv.holes for iv in iset),
        "max_overlap": iset.max_overlap(),
        "maxlive": maxlive(func),
        "points": iset.points.total,
    }
