"""Greedy-k-colorability (Chaitin's simplification scheme).

Section 2.2 of the paper: a graph is *greedy-k-colorable* iff repeatedly
removing some vertex of degree < k empties the graph.  The removal order
(in reverse) then yields a k-colouring greedily.  The smallest k for
which this works is the colouring number col(G) = 1 + max over subgraphs
of the minimum degree.

These routines are the workhorse of the conservative brute-force test
("merge, then check greedy-k-colorability in linear time") and of the
optimistic de-coalescing phase.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Tuple

from ..obs import NULL_TRACER, Tracer
from . import dense as _dense
from .graph import Graph, Vertex


def greedy_elimination_order(
    graph: Graph, k: int, tracer: Tracer = NULL_TRACER
) -> Tuple[List[Vertex], bool]:
    """Run Chaitin's elimination scheme with threshold ``k``.

    Returns ``(order, success)``: the vertices removed, in removal order,
    and whether the graph was fully eliminated.  The order in which
    candidates are picked does not affect success (the scheme is
    confluent — Section 2.2).  Runs on the dense bitset kernel
    (:func:`repro.graphs.dense.greedy_elimination_order`).
    """
    dg = graph.dense()
    order, success = _dense.greedy_elimination_order(dg, k, tracer=tracer)
    return [dg.names[i] for i in order], success


def is_greedy_k_colorable(
    graph: Graph, k: int, tracer: Tracer = NULL_TRACER
) -> bool:
    """True iff the elimination scheme with threshold ``k`` empties G.

    Runs on the dense k-core peel (:func:`repro.graphs.dense.greedy_core`).
    """
    return _dense.greedy_core(graph.dense(), k, tracer=tracer) == 0


def greedy_k_coloring(graph: Graph, k: int) -> Optional[Dict[Vertex, int]]:
    """A k-colouring obtained by the greedy scheme, or None.

    Colours vertices in reverse elimination order, giving each the
    smallest colour unused among already-coloured neighbours; possible
    because each vertex had < k neighbours remaining when removed.
    Both phases run on the dense bitset kernels.
    """
    dg = graph.dense()
    coloring = _dense.greedy_k_coloring(dg, k)
    if coloring is None:
        return None
    return {dg.names[i]: c for i, c in coloring.items()}


def coloring_number(graph: Graph) -> int:
    """col(G): the smallest k for which G is greedy-k-colorable.

    By Section 2.2, G is greedy-k-colorable iff k ≥ col(G); equivalently
    col(G) - 1 is the degeneracy: the maximum over subgraphs G' of the
    minimum degree of G'.  Found by binary search over
    ``0..max_degree + 1`` with the dense peel
    (:func:`repro.graphs.dense.greedy_core`) of the graph's twin.
    Returns 0 for the empty graph.
    """
    dg = graph.dense()
    lo, hi = 0, graph.max_degree() + 1
    while lo < hi:
        mid = (lo + hi) // 2
        if _dense.greedy_core(dg, mid):
            lo = mid + 1
        else:
            hi = mid
    return lo


def dense_subgraph_witness(graph: Graph, k: int) -> Optional[List[Vertex]]:
    """A witness that G is not greedy-k-colorable, or None.

    Returns the vertex set left over by the elimination scheme: a
    subgraph in which every vertex has degree ≥ k (the characterization
    at the end of Section 2.2), in insertion order.
    """
    dg = graph.dense()
    core = _dense.greedy_core(dg, k)
    if not core:
        return None
    return [v for i, v in enumerate(dg.names) if core >> i & 1]
