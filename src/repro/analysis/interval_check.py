"""Translation validation of interval-derived register assignments.

The linear-scan family (:mod:`repro.intervals.linear_scan`) colors
live *intervals*, not the interference graph — so the graph-side
passes (``ALLOC001``..``ALLOC004``) alone would leave the interval
abstraction itself unaudited.  The ``allocation-intervals`` pass
closes that gap with three ``INTV`` diagnostics, all derived from the
result's final code, never from the allocator's own intervals:

* ``INTV001`` (error) — *soundness of the abstraction*: two non-slot
  variables interfere in the Chaitin graph but their rebuilt live
  intervals do not intersect.  The occupancy convention of
  :mod:`repro.intervals.model` makes this impossible by construction;
  a firing means interval non-overlap no longer certifies graph
  non-adjacency and every interval-based merge is suspect.
* ``INTV002`` (error) — *exclusivity of the assignment*: two
  variables share a register while their intervals intersect (the
  interval-side mirror of ``ALLOC001``, caught without consulting the
  graph at all).
* ``INTV003`` (info on success, error on mismatch) — *pressure
  agreement*: the maximum simultaneous interval overlap equals the
  function's Maxlive, certifying that the interval and set views of
  register pressure coincide on this exact code.

The pass reads the final code's
:class:`~repro.intervals.linear_scan.CodeFacts` — one liveness solve,
and the interference rows, intervals and Maxlive over it — shared with
``allocation-validity`` through the context's fact memo
(:func:`~repro.analysis.coalescing_check.code_facts`).
:func:`~repro.analysis.engine_check.certify_allocation` hands in the
facts the engine's build memo keeps: the input's, or a link of their
:meth:`~repro.intervals.linear_scan.CodeFacts.spilled` chain, each
derived once per process and frozen;
:func:`~repro.analysis.engine_check.verify_record` without a handed
build (e2ebench's replay, a cache-hit upgrade) gets them from the same
memo.  Without them (``repro check``, ``certify_allocation`` without
``facts=``) the facts are fresh for the context.

INTV001 reads no part of the allocation, so its walk lives on those
facts (:meth:`~repro.intervals.linear_scan.CodeFacts.derived`) and runs
once per final code, not once per task: it walks the rows of
:func:`~repro.ir.interference.interference_rows` over the facts'
non-slot mask, one AND of the two point masks per row bit, and keeps
the missed pairs and the row bits walked.  The pass charges those
steps to the budget at once, before any INTV001 finding.  INTV002
accumulates one point-mask union per register and enumerates that
register's pairs only when a member meets the union.  Both report each
offending pair exactly as a per-edge and per-pair loop would.

The pass guards on the ``interval_variant`` marker of
:class:`~repro.intervals.linear_scan.LinearScanResult` and skips
silently for graph-based allocators, so ``repro check`` and the
engine's ``verify=`` path can run the whole ``allocation`` kind
uniformly.
"""

from __future__ import annotations

from typing import Any, Dict, Iterator, List, Tuple

from ..allocator.spill import is_memory_slot
from ..intervals.linear_scan import CodeFacts
from .coalescing_check import _row_pairs, code_facts
from .diagnostics import Diagnostic
from .registry import AnalysisContext, analysis_pass

__all__ = ["check_interval_allocation"]


def _interval_misses(
    facts: CodeFacts,
) -> Tuple[Tuple[Tuple[str, str], ...], int]:
    """INTV001's walk of the code: ``(misses, steps)``.

    ``misses`` are the non-slot variable pairs that interfere although
    their live intervals do not intersect, as sorted name pairs in
    :func:`~repro.analysis.coalescing_check._row_pairs` order; ``steps``
    counts the row bits walked.  It reads no allocation, so it is kept
    on the facts (:meth:`~repro.intervals.linear_scan.CodeFacts.derived`).
    """
    intervals = facts.intervals.intervals
    variables, rows = facts.rows
    points = [
        intervals[v].mask if v in intervals else 0 for v in variables
    ]

    def offending(i: int, row: int) -> int:
        mine = points[i]
        if not mine:
            return row
        bad = 0
        while row:
            bit = row & -row
            row ^= bit
            if not mine & points[bit.bit_length() - 1]:
                bad |= bit
        return bad

    pairs, steps = _row_pairs(rows, facts.nonslot, offending)
    misses = []
    for lo, hi in pairs:
        a, b = sorted((str(variables[lo]), str(variables[hi])))
        misses.append((a, b))
    return tuple(misses), steps


@analysis_pass(
    "allocation-intervals", "allocation",
    codes=("INTV001", "INTV002", "INTV003"),
)
def check_interval_allocation(
    result: Any, ctx: AnalysisContext
) -> Iterator[Diagnostic]:
    """Interval-derived assignments are interference-valid.

    One budget step per row bit walked, charged at once before any
    INTV001 finding, and one per same-register pair, charged in bulk
    per register.
    """
    if not getattr(result, "interval_variant", ""):
        return
    func = result.function
    facts = code_facts(func, ctx)
    iset = facts.intervals
    intervals = iset.intervals
    misses, steps = facts.derived(_interval_misses)
    ctx.check_budget(steps)
    for a, b in misses:
        yield Diagnostic(
            "INTV001", "error",
            f"{a} and {b} interfere but their live intervals do "
            "not intersect — the interval abstraction missed an "
            "interference",
            where=f"{a}--{b}", obj=func.name,
            detail={"edge": [a, b]},
        )
    by_register: Dict[int, List[str]] = {}
    for var, register in result.assignment.items():
        if not is_memory_slot(var):
            by_register.setdefault(register, []).append(var)
    for register in sorted(by_register):
        members = sorted(by_register[register])
        # one union-accumulate per register; pairs only on a clash
        union = 0
        clash = False
        pairs = 0
        for n, var in enumerate(members, 1):
            interval = intervals.get(var)
            if interval is None:
                continue
            pairs += len(members) - n
            clash = clash or bool(union & interval.mask)
            union |= interval.mask
        ctx.check_budget(pairs)
        if not clash:
            continue
        for i, a in enumerate(members):
            ia = intervals.get(a)
            if ia is None:
                continue
            for b in members[i + 1:]:
                ib = intervals.get(b)
                if ib is not None and ia.intersects(ib):
                    yield Diagnostic(
                        "INTV002", "error",
                        f"{a} and {b} share register r{register} but "
                        "their live intervals intersect",
                        where=f"{a}--{b}", obj=func.name,
                        detail={"pair": [a, b], "register": register},
                    )
    ctx.check_budget()
    overlap = iset.max_overlap()
    pressure = facts.maxlive
    if overlap == pressure:
        yield Diagnostic(
            "INTV003", "info",
            f"max simultaneous interval overlap {overlap} == Maxlive "
            "— the interval and set pressure views agree",
            obj=func.name,
            detail={"max_overlap": overlap, "maxlive": pressure},
        )
    else:
        yield Diagnostic(
            "INTV003", "error",
            f"max simultaneous interval overlap {overlap} != Maxlive "
            f"{pressure}",
            obj=func.name,
            detail={"max_overlap": overlap, "maxlive": pressure},
        )
