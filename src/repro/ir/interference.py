"""Building interference graphs from IR functions.

Two interference definitions from Section 2.1:

* :func:`chaitin_interference` — Chaitin et al.'s relaxed condition:
  two variables interfere iff the live range of one contains a
  *definition* of the other.  Implemented as the classic backward walk
  (each definition interferes with the live-after set, minus the source
  for a move).
* :func:`intersection_interference` — live ranges intersect, i.e. the
  variables are simultaneously live at some program point.

For strict programs the two are equivalent (the paper, §2.1); the test
suite checks this property on random generated programs.

Affinities are collected from ``mov`` instructions (weighted by block
frequency) and, for SSA functions, from φ-functions (one affinity per
(target, incoming arg) pair, weighted by the predecessor frequency —
these are the moves an out-of-SSA translation would insert).
"""

from __future__ import annotations

from itertools import combinations
from typing import List, Optional, Tuple

from ..graphs.interference import InterferenceGraph
from ..obs import EDGES_SCANNED, NULL_TRACER, WORDS_MERGED, Tracer
from .cfg import Function
from .dominance import loop_depths
from .instructions import Var
from .liveness import LivenessMasks, live_at_points, liveness_masks

_WORD_BITS = 64


def set_frequencies_from_loops(func: Function, base: float = 10.0) -> None:
    """Assign block frequencies ``base ** loop_depth`` (Chaitin's
    classic static weighting)."""
    for block, depth in loop_depths(func).items():
        func.frequency[block] = base ** depth


def interference_rows(
    func: Function,
    tracer: Tracer = NULL_TRACER,
    liveness: Optional[LivenessMasks] = None,
) -> Tuple[List[Var], List[int]]:
    """Chaitin interference as bitmask rows: ``(variables, rows)``.

    ``variables`` is the liveness interning
    (:func:`~repro.ir.liveness.liveness_masks`) and bit ``j`` of
    ``rows[i]`` an edge between ``variables[i]`` and ``variables[j]``.
    The classic backward walk: each definition absorbs the whole
    live-after mask in one word-wise OR, φ-targets the live set at the
    block top.  Rows are asymmetric — only the defining side is OR-ed,
    so an edge may be set in one row or in both.  ``liveness`` is the
    function's :func:`~repro.ir.liveness.liveness_masks` result, if the
    caller already solved it.
    """
    counting = tracer.enabled
    variables, _in_masks, out_masks = (
        liveness or liveness_masks(func, tracer=tracer))
    index = {v: i for i, v in enumerate(variables)}
    words = max(1, (len(variables) + _WORD_BITS - 1) // _WORD_BITS)
    adj: List[int] = [0] * len(variables)
    for name in func.reachable_order():
        block = func.blocks[name]
        live = out_masks[name]
        for instr in reversed(block.instrs):
            # Each definition interferes with everything live after the
            # instruction.  No special case is needed for moves: in this
            # backward walk a copy source that dies at the copy is
            # already absent from ``live``, and a source that stays live
            # genuinely interferes with the destination (the affinity is
            # then frozen, i.e. uncoalescable).
            for d in instr.defs:
                di = index[d]
                adj[di] |= live & ~(1 << di)
                if counting:
                    tracer.count(WORDS_MERGED, 2 * words)
            for d1, d2 in combinations(instr.defs, 2):
                if d1 != d2:
                    adj[index[d1]] |= 1 << index[d2]
                    adj[index[d2]] |= 1 << index[d1]
            if counting:
                tracer.count(EDGES_SCANNED, len(instr.defs) + len(instr.uses))
                tracer.count(WORDS_MERGED, 2 * words)
            for d in instr.defs:
                live &= ~(1 << index[d])
            for u in instr.uses:
                live |= 1 << index[u]
        # φs execute in parallel at block top; 'live' is now the live set
        # just after them
        for phi in block.phis:
            ti = index[phi.target]
            adj[ti] |= live & ~(1 << ti)
            if counting:
                tracer.count(WORDS_MERGED, 2 * words)
    return variables, adj


def chaitin_interference(
    func: Function,
    move_affinities: bool = True,
    phi_affinities: bool = True,
    weighted: bool = True,
    tracer: Tracer = NULL_TRACER,
    liveness: Optional[LivenessMasks] = None,
) -> InterferenceGraph:
    """The interference graph under Chaitin's definition.

    Every variable of the function becomes a vertex (so spill-candidate
    enumeration sees dead definitions too).  φ-targets are treated as
    defined in parallel at the block top; φ-arguments are used at the
    end of the predecessor (so a φ-target and its arguments do not
    interfere unless genuinely simultaneously live — this is what makes
    φ affinities coalescable and the SSA graph chordal, Theorem 1).

    The edges are the rows of :func:`interference_rows`, materialized
    once at the end, row by row:
    :meth:`~repro.graphs.graph.Graph.add_edge_rows` puts each set bit
    straight into both neighbour sets, with no per-edge ``add_edge``
    call.  Affinities come from a second walk in the same block and
    instruction order.  ``liveness`` is the function's
    :func:`~repro.ir.liveness.liveness_masks` result, if the caller
    already solved it.
    """
    variables, adj = interference_rows(func, tracer=tracer,
                                       liveness=liveness)
    g = InterferenceGraph(vertices=variables)
    reachable = func.reachable()
    # insertion-order walk: affinity insertion (and float weight
    # accumulation) order must not depend on PYTHONHASHSEED
    for name in func.reachable_order():
        block = func.blocks[name]
        if move_affinities:
            freq = func.block_frequency(name) if weighted else 1.0
            for instr in reversed(block.instrs):
                if instr.is_move:
                    dst, src = instr.defs[0], instr.uses[0]
                    if dst != src:
                        g.add_affinity(dst, src, freq)
        if phi_affinities:
            for phi in block.phis:
                for pred, v in phi.args.items():
                    if pred in reachable and v != phi.target:
                        w = func.block_frequency(pred) if weighted else 1.0
                        g.add_affinity(phi.target, v, w)
    # materialize: rows may be asymmetric (only the defining side was
    # OR-ed); the row-wise build adds each set bit in both directions
    if tracer.enabled:
        tracer.count(EDGES_SCANNED, sum(row.bit_count() for row in adj))
    g.add_edge_rows(variables, adj)
    return g


def intersection_interference(
    func: Function,
    move_affinities: bool = True,
    phi_affinities: bool = True,
    weighted: bool = True,
) -> InterferenceGraph:
    """The interference graph under the live-range-intersection
    definition: a clique over every program-point live set, plus
    def-versus-live edges so zero-length ranges are not lost."""
    base = chaitin_interference(
        func,
        move_affinities=move_affinities,
        phi_affinities=phi_affinities,
        weighted=weighted,
    )
    points = live_at_points(func)
    for live in points.values():
        for u, v in combinations(sorted(live), 2):
            base.add_edge(u, v)
    # re-freeze affinities that became interferences: Coalescing treats
    # an affinity between interfering vertices as uncoalescable anyway,
    # so nothing further to do.
    return base

