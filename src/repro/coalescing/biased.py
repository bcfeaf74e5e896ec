"""Biased colouring (Section 1's "smarter coloring schemes favoring
more coalescing").

Instead of merging vertices, biased colouring keeps the graph intact
and steers the *select* phase: when a vertex is coloured, prefer a
colour already given to one of its affinity partners (weighted), so
moves vanish for free when the interference structure allows it.

Cheaper than any conservative test — it can never hurt colourability —
but weaker: it only sees partners already coloured, and no look-ahead.
The ablation bench compares it against the merging strategies.
"""

from __future__ import annotations

from functools import partial
from typing import Dict, List, Optional, Tuple

from ..graphs.dense import DenseGraph, greedy_elimination_order
from ..graphs.graph import Vertex
from ..graphs.interference import Coalescing, InterferenceGraph
from ..obs import NULL_TRACER, Tracer
from .base import CoalescingResult


def _elimination(dense: DenseGraph, k: int) -> Tuple[Tuple[int, ...], bool]:
    """Chaitin's elimination order of ``dense`` at ``k``, frozen."""
    order, success = greedy_elimination_order(dense, k)
    return tuple(order), success


def biased_greedy_coloring(
    graph: InterferenceGraph, k: int, tracer: Tracer = NULL_TRACER
) -> Optional[Dict[Vertex, int]]:
    """A greedy k-colouring of an interference graph with
    affinity-biased colour selection, or None when the graph is not
    greedy-k-colorable.

    Vertices are coloured in reverse elimination order; each vertex
    takes the allowed colour with the highest total affinity weight to
    already-coloured partners, falling back to the smallest allowed
    colour.  Runs on the graph's dense twin: one bitmask per colour
    class, so colour ``c`` is allowed iff ``classes[c] & adj[v]`` is 0,
    and the elimination order is the twin's, kept per ``k``
    (:meth:`~repro.graphs.dense.DenseGraph.kept`).
    """
    with tracer.span("biased-coloring"):
        dense = graph.dense()
        order, success = dense.kept(f"elimination-order/{k}",
                                    partial(_elimination, k=k))
        if not success:
            return None
        index, adj = dense.index, dense.adj
        partners: List[List[Tuple[int, float]]] = [[] for _ in dense.names]
        for u, v, w in graph.affinities():
            i, j = index[u], index[v]
            partners[i].append((j, w))
            partners[j].append((i, w))
        color = [-1] * dense.n
        classes: List[int] = []
        preferred = 0
        for v in reversed(order):
            av = adj[v]
            preference: Dict[int, float] = {}
            for partner, w in partners[v]:
                c = color[partner]
                if c >= 0 and not classes[c] & av:
                    preference[c] = preference.get(c, 0.0) + w
            if preference:
                c = max(sorted(preference), key=preference.__getitem__)
                preferred += 1
            else:
                c = 0
                for cls in classes:
                    if not cls & av:
                        break
                    c += 1
            if c == len(classes):
                classes.append(0)
            classes[c] |= 1 << v
            color[v] = c
        if preferred:
            tracer.count("biased.preferred", preferred)
        if preferred < len(order):
            tracer.count("biased.fallback", len(order) - preferred)
        names = dense.names
        return {names[v]: color[v] for v in reversed(order)}


def biased_coloring_result(
    graph: InterferenceGraph, k: int, tracer: Tracer = NULL_TRACER
) -> CoalescingResult:
    """Express a biased colouring as a :class:`CoalescingResult`.

    Two affinity endpoints count as coalesced when the biased colouring
    gives them the same colour.  (The partition groups same-coloured
    affinity-connected vertices, which is a valid coalescing since they
    never interfere.)  The colouring itself rides along as the result's
    ``coloring``: greedy-colouring the quotient afresh would lose the
    bias, and can fail where the biased colouring succeeded.
    """
    coloring = biased_greedy_coloring(graph, k, tracer=tracer)
    if coloring is None:
        raise ValueError("input graph is not greedy-k-colorable")
    coalescing = Coalescing(graph)
    tracer.count("affinities.total", graph.num_affinities())
    for u, v, _ in graph.affinities():
        tracer.count("moves.attempted")
        if (
            coloring[u] == coloring[v]
            and not graph.has_edge(u, v)
            and coalescing.can_union(u, v)
        ):
            coalescing.union(u, v)
            tracer.count("moves.coalesced")
        else:
            tracer.count("moves.rejected")
    return CoalescingResult(
        graph=graph, coalescing=coalescing, strategy="biased",
        coloring=coloring)
