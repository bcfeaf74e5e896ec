"""Node merging to *enhance* colourability (Vegdahl / Yang et al.).

Section 1 of the paper: "One can also merge vertices even if they are
not related to a move because this can sometimes make a non k-colorable
graph k-colorable [35, 34]."  Merging two non-adjacent vertices with
many common neighbours collapses their edges, lowering degrees in the
greedy elimination — two variables sharing a register is never wrong
for correctness, and sometimes it is exactly what unlocks the colouring.

The canonical example is the greedy-elimination-stuck even cycle: C4 at
k = 2 is 2-colorable but every vertex has degree 2; merging the two
antipodal vertices leaves a path.

:func:`merge_to_make_greedy_colorable` — repeatedly merge the
non-adjacent pair with the most common neighbours inside the stuck
witness subgraph until the graph becomes greedy-k-colorable (or no
merge can help).
"""

from __future__ import annotations

from itertools import combinations
from typing import Dict, Optional, Tuple

from repro.graphs.graph import Graph, Vertex
from repro.graphs.greedy import dense_subgraph_witness, is_greedy_k_colorable
from repro.graphs.interference import Coalescing, InterferenceGraph


def merge_to_make_greedy_colorable(
    graph: InterferenceGraph,
    k: int,
    max_merges: Optional[int] = None,
) -> Optional[Coalescing]:
    """Search for vertex merges that make the graph greedy-k-colorable.

    Returns the coalescing (possibly the identity, if the graph already
    is), or None when the heuristic gets stuck: no non-adjacent pair
    inside the witness subgraph reduces its edge count enough.

    The pair picked each round maximizes the number of common
    neighbours within the witness (each common neighbour loses one
    degree), breaking ties towards low combined degree.
    """
    limit = max_merges if max_merges is not None else len(graph)
    coalescing = Coalescing(graph)
    work = graph.copy()
    rep_name: Dict[Vertex, Vertex] = {v: v for v in graph.vertices}
    owner: Dict[Vertex, Vertex] = {v: v for v in graph.vertices}

    for _ in range(limit):
        witness = dense_subgraph_witness(work, k)
        if witness is None:
            return coalescing
        best: Optional[Tuple[int, int, Vertex, Vertex]] = None
        for u, v in combinations(sorted(witness, key=str), 2):
            if work.has_edge(u, v):
                continue
            common = len(work.neighbors_view(u) & work.neighbors_view(v))
            if common == 0:
                continue
            score = (
                -common,
                work.degree(u) + work.degree(v),
            )
            if best is None or score < (best[0], best[1]):
                best = (score[0], score[1], u, v)
        if best is None:
            return None
        _, _, u, v = best
        coalescing.union(owner[u], owner[v])
        merged = work.merge_in_place(u, v)
        rep = coalescing.find(owner[u])
        rep_name[rep] = merged
        owner[merged] = owner[u]
    if is_greedy_k_colorable(work, k):
        return coalescing
    return None


def merging_helps(graph: Graph, k: int) -> bool:
    """True iff the graph is not greedy-k-colorable but some sequence of
    merges found by the heuristic makes it so."""
    if is_greedy_k_colorable(graph, k):
        return False
    ig = InterferenceGraph()
    for v in graph.vertices:
        ig.add_vertex(v)
    for u, v in graph.edges():
        ig.add_edge(u, v)
    return merge_to_make_greedy_colorable(ig, k) is not None
