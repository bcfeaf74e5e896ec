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

from typing import Dict, List, Optional, Tuple

from ..graphs.graph import Vertex
from ..graphs.greedy import greedy_elimination_order
from ..graphs.interference import Coalescing, InterferenceGraph
from ..obs import NULL_TRACER, Tracer
from .base import CoalescingResult


def biased_greedy_coloring(
    graph: InterferenceGraph, k: int, tracer: Tracer = NULL_TRACER
) -> Optional[Dict[Vertex, int]]:
    """A greedy k-colouring of an interference graph with
    affinity-biased colour selection, or None when the graph is not
    greedy-k-colorable.

    Vertices are coloured in reverse elimination order; each vertex
    takes the allowed colour with the highest total affinity weight to
    already-coloured partners, falling back to the smallest allowed
    colour.
    """
    with tracer.span("biased-coloring"):
        order, success = greedy_elimination_order(graph, k)
        if not success:
            return None
        partner_weights: Dict[Vertex, List[Tuple[Vertex, float]]] = {
            v: [] for v in graph.vertices
        }
        for u, v, w in graph.affinities():
            partner_weights[u].append((v, w))
            partner_weights[v].append((u, w))
        coloring: Dict[Vertex, int] = {}
        for v in reversed(order):
            forbidden = {
                coloring[u] for u in graph.neighbors_view(v) if u in coloring
            }
            preference: Dict[int, float] = {}
            for partner, w in partner_weights[v]:
                c = coloring.get(partner)
                if c is not None and c not in forbidden:
                    preference[c] = preference.get(c, 0.0) + w
            if preference:
                coloring[v] = max(sorted(preference), key=preference.__getitem__)
                tracer.count("biased.preferred")
                continue
            c = 0
            while c in forbidden:
                c += 1
            coloring[v] = c
            tracer.count("biased.fallback")
    return coloring


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
