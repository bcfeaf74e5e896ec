"""Liveness analysis and Maxlive.

Classic backward dataflow over the CFG, with the SSA-conventional
treatment of φ-functions:

* the *use* of a φ-argument happens at the end of the corresponding
  predecessor block (so φ inputs are live-out of the predecessor, not
  live-in of the join);
* the *definition* of a φ-target happens at the top of the join block,
  so φ-targets are not live-in to the join (unless used by another φ of
  the same block, which strict SSA forbids anyway).

``Maxlive`` (Section 2.1) is the maximum, over program points, of the
number of simultaneously-live variables.  Program points are taken
between consecutive instructions, plus the block boundary points; for a
strict program it is a lower bound on the number of registers needed,
and equals ω(G) under strict SSA (Theorem 1).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Dict, Iterator, List, Optional, Set, Tuple

from ..obs import NULL_TRACER, Tracer
from .cfg import Function
from .dataflow import definite_assignment_problem, liveness_problem, solve
from .instructions import Var


#: What :func:`liveness_masks` returns: ``(variables, live_in, live_out)``.
LivenessMasks = Tuple[List[Var], Dict[str, int], Dict[str, int]]


@dataclass
class LivenessInfo:
    """Per-block live-in/live-out sets."""

    live_in: Dict[str, Set[Var]] = field(default_factory=dict)
    live_out: Dict[str, Set[Var]] = field(default_factory=dict)


def liveness_masks(
    func: Function, tracer: Tracer = NULL_TRACER
) -> LivenessMasks:
    """Mask-based backward liveness: the dense transfer kernel.

    Interns the function's variables (sorted order, so the mapping is
    reproducible) and runs the backward/may instance of the generic
    monotone framework (:mod:`repro.ir.dataflow`) with each live
    set held as one ``int`` bitmask — the per-block transfer is a
    handful of word-wise OR/ANDNOT operations instead of per-element
    set algebra.  Returns ``(variables, live_in, live_out)`` where the
    dicts map reachable block names to bitmasks over the variable
    indices.  :func:`compute_liveness` materializes these masks back to
    the classic per-block sets; the interference builder
    (:func:`repro.ir.interference.chaitin_interference`) consumes them
    directly.  The fixpoint of a monotone framework is unique, so the
    worklist engine reaches the same sets as a round-robin sweep while
    doing strictly less transfer work.
    """
    problem = liveness_problem(func)
    result = solve(func, problem, tracer=tracer)
    return list(problem.domain), result.in_masks, result.out_masks


def compute_liveness(func: Function, tracer: Tracer = NULL_TRACER) -> LivenessInfo:
    """Fixed-point backward liveness over reachable blocks.

    Runs on the bitmask transfer kernel (:func:`liveness_masks`) and
    materializes the per-block sets.
    """
    variables, in_masks, out_masks = liveness_masks(func, tracer=tracer)

    def to_set(mask: int) -> Set[Var]:
        out: Set[Var] = set()
        while mask:
            low = mask & -mask
            out.add(variables[low.bit_length() - 1])
            mask ^= low
        return out

    return LivenessInfo(
        live_in={b: to_set(m) for b, m in in_masks.items()},
        live_out={b: to_set(m) for b, m in out_masks.items()},
    )


def live_at_points(func: Function, info: LivenessInfo | None = None) -> Dict[Tuple[str, int], Set[Var]]:
    """Live sets at every program point.

    Point ``(b, i)`` is *before* instruction ``i`` of block ``b``;
    ``(b, len(instrs))`` is the block end (= live-out).  φ-functions sit
    before point 0: live at ``(b, 0)`` includes φ-targets.
    """
    if info is None:
        info = compute_liveness(func)
    points: Dict[Tuple[str, int], Set[Var]] = {}
    for name in func.reachable():
        block = func.blocks[name]
        live = set(info.live_out[name])
        points[(name, len(block.instrs))] = set(live)
        for i in range(len(block.instrs) - 1, -1, -1):
            instr = block.instrs[i]
            live -= set(instr.defs)
            live |= set(instr.uses)
            points[(name, i)] = set(live)
    return points


def maxlive(
    func: Function,
    liveness: Optional[LivenessMasks] = None,
    *,
    skip: Optional[Callable[[Var], bool]] = None,
) -> int:
    """Maxlive: the register-pressure lower bound of Section 2.1.

    A variable is live *at* its definition point (even when never used
    afterwards), so the pressure at an instruction is the size of its
    live-after set united with its definitions; φ-targets all count at
    the block top, where they are defined in parallel.  With this
    convention ω(G) = Maxlive for strict SSA (Theorem 1).

    Walks the :func:`liveness_masks` output backward (``liveness``, if
    the caller already solved it), one popcount of ``live | defs`` per
    instruction.  The variables for which ``skip`` holds (memory slots,
    for the two-phase allocator's pressure) are masked out of every
    count.
    """
    variables, _, out_masks = liveness or liveness_masks(func)
    bit = {v: 1 << i for i, v in enumerate(variables)}
    counted = ~sum(b for v, b in bit.items() if skip(v)) if skip else -1
    best = 0
    for name, live in out_masks.items():
        block = func.blocks[name]
        best = max(best, (live & counted).bit_count())
        for instr in reversed(block.instrs):
            defs = 0
            for d in instr.defs:
                defs |= bit[d]
            pressure = ((live | defs) & counted).bit_count()
            if pressure > best:
                best = pressure
            live &= ~defs
            for u in instr.uses:
                live |= bit[u]
        targets = 0
        for phi in block.phis:
            targets |= bit[phi.target]
        best = max(best, ((live | targets) & counted).bit_count())
    return best


def dead_code_vars(func: Function) -> Set[Var]:
    """Variables defined but never used (anywhere, incl. φ args)."""
    used: Set[Var] = set()
    defined: Set[Var] = set()
    for block in func.blocks.values():
        for phi in block.phis:
            defined.add(phi.target)
            used.update(phi.args.values())
        for instr in block.instrs:
            defined.update(instr.defs)
            used.update(instr.uses)
    return defined - used


def strictness_violations(
    func: Function,
) -> Iterator[Tuple[Var, str, Optional[str]]]:
    """Uses that some entry path reaches with the variable unassigned.

    Forward/must dataflow of definitely-assigned variables, run as the
    :func:`repro.ir.dataflow.definite_assignment_problem` instance of
    the generic framework.  Yields ``(var, block, pred)``: ``pred`` is
    the predecessor of a φ-argument use and ``None`` for an ordinary
    use in ``block``.  Blocks come in reverse postorder, φs first.
    """
    reachable = func.reachable()
    result = solve(func, definite_assignment_problem(func))
    assigned_in: Dict[str, Set[Var]] = {
        b: result.in_set(b) for b in result.in_masks
    }
    for b in func.reverse_postorder():
        block = func.blocks[b]
        for phi in block.phis:
            for pred, v in phi.args.items():
                if pred in reachable:
                    avail = assigned_in[pred] | func.blocks[pred].defs()
                    if v not in avail:
                        yield v, b, pred
        avail = set(assigned_in[b]) | {phi.target for phi in block.phis}
        for instr in block.instrs:
            for v in instr.uses:
                if v not in avail:
                    yield v, b, None
            avail.update(instr.defs)


def describe_violation(var: Var, block: str, pred: Optional[str]) -> str:
    """The message for one :func:`strictness_violations` finding."""
    if pred is not None:
        return f"phi arg {var} from {pred} in {block} may be unassigned"
    return f"use of {var} in {block} may be unassigned"


def check_strict(func: Function) -> List[str]:
    """Verify strictness: every use is reached by a def on all paths.

    Returns one :func:`describe_violation` message per
    :func:`strictness_violations` finding (empty when strict).
    """
    return [describe_violation(*f) for f in strictness_violations(func)]
