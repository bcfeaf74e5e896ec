"""Local (basic-block) register allocation.

The paper's decoupled view of register allocation cites Liberatore,
Farach-Colton and Kremer's evaluation of *local* register allocation
[25]: on straight-line code the interference graph is an interval graph
and the spilling problem has clean offline solutions.  This module
provides the classical algorithms on our IR, as the unit-cost spill
oracle of the tests and the A6 baseline of
``benchmarks/bench_spill_and_local.py``:

* :func:`belady_local_allocate` — furthest-next-use eviction (Belady's
  MIN adapted to registers), optimal for the number of *reloads* under
  unit costs;
* :func:`block_intervals`, :func:`max_overlap` and
  :func:`color_intervals` — the interval view of a block: live
  intervals from first definition to last use (no holes, unlike the
  whole-function model of :mod:`repro.intervals`), their maximal
  overlap (= Maxlive = ω of the interval graph), and an optimal
  colouring by the greedy sweep.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Set, Tuple

from repro.ir.cfg import BasicBlock
from repro.ir.instructions import Instr, Var
from repro.obs import NULL_TRACER, Tracer


@dataclass
class LocalAllocation:
    """Result of local allocation on one block."""

    k: int
    #: per-instruction register assignment for used/defined variables
    assignment: List[Dict[Var, int]]
    loads: int = 0
    stores: int = 0

    @property
    def spill_operations(self) -> int:
        """Total memory operations introduced."""
        return self.loads + self.stores


def _next_use_table(instrs: Sequence[Instr]) -> List[Dict[Var, int]]:
    """next_use[i][v] = index of the first use of v at or after i
    (absent when never used again)."""
    table: List[Dict[Var, int]] = [dict() for _ in range(len(instrs) + 1)]
    upcoming: Dict[Var, int] = {}
    for i in range(len(instrs) - 1, -1, -1):
        table[i + 1] = dict(upcoming)
        # a definition at i kills older uses; a use at i is a use at i
        for v in instrs[i].defs:
            upcoming.pop(v, None)
        for v in instrs[i].uses:
            upcoming[v] = i
        table[i] = dict(upcoming)
    return table


def belady_local_allocate(
    block: BasicBlock,
    k: int,
    live_out: Optional[Set[Var]] = None,
    tracer: Tracer = NULL_TRACER,
) -> LocalAllocation:
    """Belady-style local allocation of one basic block.

    Simulates a register file of size ``k``; on pressure, evicts the
    resident variable whose next use is furthest (ties: not live-out
    first).  Counts the loads (reload of an evicted variable at its
    next use) and stores (first eviction of a dirty variable).

    Raises ``ValueError`` when an instruction needs more than ``k``
    simultaneous operands.
    """
    if k <= 0:
        raise ValueError("need at least one register")
    live_out = set(live_out or ())
    instrs = block.instrs
    next_use = _next_use_table(instrs)
    registers: Dict[Var, int] = {}
    free: List[int] = list(range(k - 1, -1, -1))
    dirty: Set[Var] = set()
    stored: Set[Var] = set()
    result = LocalAllocation(k=k, assignment=[])

    def evict(protect: Set[Var], at: int) -> None:
        candidates = [v for v in registers if v not in protect]
        if not candidates:
            raise ValueError(
                f"instruction {at} needs more than {k} registers at once"
            )
        def key(v: Var):
            nu = next_use[at + 1].get(v)
            # prefer evicting: never used again and not live-out, then
            # furthest next use
            never = nu is None and v not in live_out
            return (not never, -(nu if nu is not None else 10 ** 9))
        victim = min(candidates, key=key)
        tracer.count("local.evictions")
        if (victim in dirty or victim in live_out) and victim not in stored:
            nu = next_use[at + 1].get(victim)
            if nu is not None or victim in live_out:
                result.stores += 1
                stored.add(victim)
                tracer.count("local.stores")
        free.append(registers.pop(victim))

    def ensure(v: Var, protect: Set[Var], at: int, is_def: bool) -> None:
        if v in registers:
            return
        if not free:
            evict(protect, at)
        registers[v] = free.pop()
        if not is_def:
            result.loads += 1  # reload (or first load of a livein)
            tracer.count("local.loads")
        if is_def:
            dirty.add(v)
            stored.discard(v)

    for i, instr in enumerate(instrs):
        snapshot: Dict[Var, int] = {}
        protect: Set[Var] = set(instr.uses)
        for v in instr.uses:
            ensure(v, protect - {v}, i, is_def=False)
        for v in instr.uses:
            snapshot[v] = registers[v]
        # a dying operand's register may be overwritten by a result:
        # release uses with no later use (and not live-out) before
        # allocating the definitions
        for v in instr.uses:
            if (
                v in registers
                and v not in instr.defs
                and next_use[i + 1].get(v) is None
                and v not in live_out
            ):
                free.append(registers.pop(v))
                dirty.discard(v)
        # defs may evict even surviving operands (already read at this
        # point); only sibling defs are untouchable
        def_protect = set(instr.defs)
        for v in instr.defs:
            ensure(v, def_protect - {v}, i, is_def=True)
            dirty.add(v)
            snapshot[v] = registers[v]
        result.assignment.append(snapshot)
    return result


@dataclass
class Interval:
    """A live interval within a block: [start, end] instruction indices."""

    var: Var
    start: int
    end: int


def block_intervals(
    block: BasicBlock, live_out: Optional[Set[Var]] = None
) -> List[Interval]:
    """Live intervals of a straight-line block.

    A variable's interval runs from its first definition (or 0 if
    live-in) to its last use (or the block end if live-out).
    """
    live_out = set(live_out or ())
    n = len(block.instrs)
    first_def: Dict[Var, int] = {}
    last_use: Dict[Var, int] = {}
    seen: Set[Var] = set()
    for i, instr in enumerate(block.instrs):
        for v in instr.uses:
            last_use[v] = i
            if v not in seen:
                seen.add(v)
                first_def.setdefault(v, 0)  # live-in
        for v in instr.defs:
            seen.add(v)
            first_def.setdefault(v, i)
    intervals = []
    for v in seen:
        end = n if v in live_out else last_use.get(v, first_def[v])
        intervals.append(Interval(var=v, start=first_def[v], end=end))
    return sorted(intervals, key=lambda iv: (iv.start, iv.end, str(iv.var)))


def max_overlap(intervals: Sequence[Interval]) -> int:
    """Maximum number of simultaneously-live intervals (= ω of the
    interval graph = local Maxlive)."""
    events: List[Tuple[int, int]] = []
    for iv in intervals:
        events.append((iv.start, 1))
        events.append((iv.end + 1, -1))
    events.sort()
    best = cur = 0
    for _, delta in events:
        cur += delta
        best = max(best, cur)
    return best


def color_intervals(
    intervals: Sequence[Interval], k: Optional[int] = None
) -> Optional[Dict[Var, int]]:
    """Greedy sweep colouring of intervals (optimal: uses max-overlap
    colours).  Returns None if more than ``k`` colours are needed."""
    active: List[Tuple[int, int, Var]] = []  # (end, colour, var)
    free: List[int] = []
    next_color = 0
    coloring: Dict[Var, int] = {}
    for iv in intervals:
        still_active = []
        for end, color, var in active:
            if end < iv.start:
                free.append(color)
            else:
                still_active.append((end, color, var))
        active = still_active
        if free:
            color = min(free)
            free.remove(color)
        else:
            color = next_color
            next_color += 1
            if k is not None and color >= k:
                return None
        coloring[iv.var] = color
        active.append((iv.end, color, iv.var))
    return coloring
