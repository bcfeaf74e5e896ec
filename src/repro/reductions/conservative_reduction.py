"""Theorem 3: graph k-colorability ≤p conservative coalescing (Figure 2).

Given any graph ``G = (V, E)`` and ``k``, build an interference graph
``H`` that is a disjoint union of edges (hence greedy-2-colorable):

* every vertex of ``G`` appears in ``H`` isolated;
* each edge ``e = (u, v)`` becomes a fresh interference ``(x_e, y_e)``
  with affinities ``(u, x_e)`` and ``(y_e, v)``.

All affinities can be coalesced aggressively, and doing so produces
exactly ``G``.  Hence the conservative instance with budget K = 0 is
positive iff ``G`` is k-colorable.

The second part of the theorem (targets restricted to chordal /
greedy-k-colorable quotients, merging only along affinities) adds a
"cliquefier": for every *pair* of vertices of ``G`` a fresh vertex
``x_{u,v}`` with affinities to ``u`` and ``v`` — an optimal coalescing
then merges the colour classes pairwise into a k-clique, which is both
chordal and greedy-k-colorable.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations
from typing import Dict, Tuple

from ..graphs.coloring import k_coloring_exact
from ..graphs.graph import Graph, Vertex
from ..graphs.interference import Coalescing, InterferenceGraph


@dataclass
class ConservativeReduction:
    """The Figure 2 instance plus bookkeeping."""

    source: Graph
    k: int
    interference: InterferenceGraph
    #: original edge (u, v) -> its (x_e, y_e) pair
    edge_gadgets: Dict[Tuple[Vertex, Vertex], Tuple[Vertex, Vertex]]
    #: pair (u, v) -> cliquefier vertex, when built with cliquefier
    pair_gadgets: Dict[Tuple[Vertex, Vertex], Vertex]


def reduce_colorability(
    graph: Graph, k: int, cliquefier: bool = False
) -> ConservativeReduction:
    """Build the Theorem 3 instance.

    With ``cliquefier=False`` this is the first part of the proof (the
    quotient of a full coalescing is exactly ``G``); with True, the
    x_{u,v} gadgets of the second part are added.
    """
    h = InterferenceGraph(vertices=list(graph.vertices))
    edge_gadgets: Dict[Tuple[Vertex, Vertex], Tuple[Vertex, Vertex]] = {}
    for idx, (u, v) in enumerate(graph.edges()):
        xe, ye = f"x_g{idx}", f"y_g{idx}"
        h.add_edge(xe, ye)
        h.add_affinity(u, xe, 1.0)
        h.add_affinity(ye, v, 1.0)
        edge_gadgets[(u, v)] = (xe, ye)
    pair_gadgets: Dict[Tuple[Vertex, Vertex], Vertex] = {}
    if cliquefier:
        for u, v in combinations(sorted(graph.vertices, key=str), 2):
            xuv = f"pair_{u}_{v}"
            h.add_vertex(xuv)
            h.add_affinity(u, xuv, 1.0)
            h.add_affinity(v, xuv, 1.0)
            pair_gadgets[(u, v)] = xuv
    return ConservativeReduction(
        source=graph,
        k=k,
        interference=h,
        edge_gadgets=edge_gadgets,
        pair_gadgets=pair_gadgets,
    )


def full_coalescing(reduction: ConservativeReduction) -> Coalescing:
    """Coalesce every edge-gadget affinity (always interference-free);
    the quotient is isomorphic to the source graph."""
    coalescing = Coalescing(reduction.interference)
    for (u, v), (xe, ye) in reduction.edge_gadgets.items():
        coalescing.union(u, xe)
        coalescing.union(v, ye)
    return coalescing


def coloring_to_coalescing(
    reduction: ConservativeReduction, coloring: Dict[Vertex, int]
) -> Coalescing:
    """Map a k-colouring of the source onto a *total* coalescing of the
    cliquefier instance: colour classes merge pairwise through the
    x_{u,v} gadgets, yielding a quotient that is a clique of ≤ k
    vertices (chordal and greedy-k-colorable)."""
    coalescing = full_coalescing(reduction)
    for (u, v), xuv in reduction.pair_gadgets.items():
        if coloring[u] == coloring[v]:
            coalescing.union(u, xuv)
            coalescing.union(xuv, v)
        else:
            # attach the gadget to one endpoint; only one of its two
            # affinities stays uncoalesced
            coalescing.union(u, xuv)
    return coalescing


def decide_source_via_target(reduction: ConservativeReduction) -> bool:
    """Decide k-colorability of the source through the coalescing
    instance: is there a conservative coalescing with K = 0 among the
    edge gadgets?  (Equivalent by the theorem to the quotient — which is
    the source graph — being k-colorable.)"""
    quotient = full_coalescing(reduction).coalesced_graph()
    return k_coloring_exact(quotient, reduction.k) is not None


def verify_equivalence(reduction: ConservativeReduction) -> Tuple[bool, bool]:
    """Both sides of the Theorem 3 equivalence, for the tests:
    (source k-colorable, target has zero-residual conservative
    coalescing)."""
    source_ok = k_coloring_exact(reduction.source, reduction.k) is not None
    target_ok = decide_source_via_target(reduction)
    return source_ok, target_ok
