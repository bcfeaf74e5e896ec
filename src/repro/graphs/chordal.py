"""Chordal-graph toolkit.

Chordal graphs are central to the paper: the interference graph of a
strict SSA program is chordal (Theorem 1), a k-colorable chordal graph is
greedy-k-colorable (Property 1), and incremental conservative coalescing
is polynomial on chordal graphs (Theorem 5, which needs the clique-tree
/ subtree representation of Golumbic Thm 4.8).

Algorithms here:

* maximum-cardinality search (MCS) producing a perfect elimination
  ordering when the graph is chordal — O(V+E);
* chordality test by verifying the MCS order is a PEO — O(V+E);
* maximal cliques of a chordal graph from a PEO — O(V+E) cliques;
* clique tree: a tree on the maximal cliques such that for every vertex
  the cliques containing it form a subtree (the representation used by
  Theorem 5);
* simplicial vertices;
* optimal colouring of a chordal graph (greedy along the reverse PEO),
  which uses exactly ω(G) colours.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, FrozenSet, List, Optional, Sequence, Set, Tuple

from ..obs import NULL_TRACER, Tracer
from .dense import DenseGraph
from .dense import mcs_order as _dense_mcs_order
from .graph import Graph, Vertex


def maximum_cardinality_search(
    graph: Graph, tracer: Tracer = NULL_TRACER
) -> List[Vertex]:
    """An MCS order of the vertices.

    Repeatedly pick an unvisited vertex with the most visited neighbours.
    For chordal graphs the *reverse* of this order is a perfect
    elimination ordering.  Runs on the dense bitset kernel
    (:func:`repro.graphs.dense.mcs_order`): a lazy heap with an
    insertion-order tie-break.
    """
    dense = DenseGraph.from_graph(graph)
    return [dense.names[i] for i in _dense_mcs_order(dense, tracer=tracer)]


def is_perfect_elimination_ordering(graph: Graph, order: Sequence[Vertex]) -> bool:
    """Check that ``order`` is a perfect elimination ordering.

    ``order`` is read as an *elimination* order: for each vertex v, its
    neighbours occurring later in the order must form a clique.  Uses the
    classic follower trick (Golumbic) for an O(V+E) check instead of the
    quadratic direct definition.

    ``order`` must be a *permutation* of the vertex set: an order that
    omits, duplicates, or invents vertices is rejected (a partial order
    could otherwise pass the clique condition vacuously).
    """
    if len(order) != len(graph):
        return False
    position = {v: i for i, v in enumerate(order)}
    if len(position) != len(order):
        return False  # duplicated vertex
    for v in graph.vertices:
        if v not in position:
            return False
    for v in position:
        if v not in graph:
            return False
    for v in order:
        later = [u for u in graph.neighbors_view(v) if position[u] > position[v]]
        if not later:
            continue
        # the earliest later-neighbour must be adjacent to all the others
        first = min(later, key=position.__getitem__)
        rest = set(later) - {first}
        if not rest <= graph.neighbors_view(first):
            return False
    return True


def perfect_elimination_ordering(graph: Graph) -> Optional[List[Vertex]]:
    """A PEO of ``graph``, or None if the graph is not chordal."""
    order = list(reversed(maximum_cardinality_search(graph)))
    if is_perfect_elimination_ordering(graph, order):
        return order
    return None


def is_chordal(graph: Graph) -> bool:
    """True iff every cycle of length ≥ 4 has a chord."""
    return perfect_elimination_ordering(graph) is not None


def simplicial_vertices(graph: Graph) -> List[Vertex]:
    """All vertices whose neighbourhood is a clique.

    Every chordal graph has at least one (and, unless complete, at least
    two) simplicial vertices; Property 1's proof peels them off.
    """
    return [v for v in graph.vertices if graph.is_clique(graph.neighbors_view(v))]


def maximal_cliques_chordal(graph: Graph) -> List[FrozenSet[Vertex]]:
    """The maximal cliques of a chordal graph.

    From a PEO: the candidate cliques are v plus its later neighbours;
    keep those not strictly contained in another candidate.  A chordal
    graph has at most |V| maximal cliques.  Raises ``ValueError`` on a
    non-chordal input.
    """
    order = perfect_elimination_ordering(graph)
    if order is None:
        raise ValueError("graph is not chordal")
    position = {v: i for i, v in enumerate(order)}
    later: Dict[Vertex, List[Vertex]] = {
        v: [u for u in graph.neighbors_view(v) if position[u] > position[v]]
        for v in order
    }
    # Blair–Peyton criterion: the candidate {v} ∪ later(v) is NOT maximal
    # iff some earlier u has v = min(later(u)) and |later(u)| - 1 ≥
    # |later(v)| (then later(u) \ {v} ⊆ later(v) forces containment).
    not_maximal: Set[Vertex] = set()
    for u in order:
        if not later[u]:
            continue
        first = min(later[u], key=position.__getitem__)
        if len(later[u]) - 1 >= len(later[first]):
            not_maximal.add(first)
    return [
        frozenset({v} | set(later[v])) for v in order if v not in not_maximal
    ]


def clique_number_chordal(graph: Graph) -> int:
    """ω(G) for a chordal graph (0 for the empty graph)."""
    if len(graph) == 0:
        return 0
    return max(len(c) for c in maximal_cliques_chordal(graph))


def chordal_coloring(graph: Graph) -> Dict[Vertex, int]:
    """An optimal colouring of a chordal graph using ω(G) colours.

    Greedy along the reverse of a PEO (i.e. along the MCS order): when a
    vertex is coloured, its already-coloured neighbours form a clique, so
    the smallest missing colour is < ω(G).  Raises ``ValueError`` on a
    non-chordal input.
    """
    from .coloring import greedy_coloring

    order = perfect_elimination_ordering(graph)
    if order is None:
        raise ValueError("graph is not chordal")
    return greedy_coloring(graph, order=list(reversed(order)))


# ----------------------------------------------------------------------
# clique tree / subtree representation (Golumbic Thm 4.8)
# ----------------------------------------------------------------------
@dataclass
class CliqueTree:
    """A clique tree of a chordal graph.

    ``cliques[i]`` is the i-th maximal clique (a frozenset of vertices);
    ``edges`` are pairs of clique indices forming a tree (a forest when
    the graph is disconnected); ``subtree[v]`` is the set of clique
    indices containing vertex v — always connected in the tree (the
    subtree :math:`T_v` of the paper's Theorem 5 proof).
    """

    cliques: List[FrozenSet[Vertex]]
    edges: List[Tuple[int, int]]
    subtree: Dict[Vertex, Set[int]] = field(default_factory=dict)

    def __post_init__(self) -> None:
        if not self.subtree:
            for i, clique in enumerate(self.cliques):
                for v in clique:
                    self.subtree.setdefault(v, set()).add(i)

    def adjacency(self) -> Dict[int, Set[int]]:
        """Tree adjacency over clique indices."""
        adj: Dict[int, Set[int]] = {i: set() for i in range(len(self.cliques))}
        for a, b in self.edges:
            adj[a].add(b)
            adj[b].add(a)
        return adj

    def path(self, start: int, end: int) -> Optional[List[int]]:
        """The unique tree path between two clique nodes (None if
        disconnected)."""
        if start == end:
            return [start]
        adj = self.adjacency()
        prev: Dict[int, int] = {start: start}
        stack = [start]
        while stack:
            x = stack.pop()
            for y in adj[x]:
                if y not in prev:
                    prev[y] = x
                    if y == end:
                        path = [end]
                        while path[-1] != start:
                            path.append(prev[path[-1]])
                        path.reverse()
                        return path
                    stack.append(y)
        return None


def clique_tree(graph: Graph) -> CliqueTree:
    """Build a clique tree of a chordal graph.

    Maximum-weight spanning tree on the clique-intersection graph, where
    the weight of (C_i, C_j) is |C_i ∩ C_j|; by the classical result this
    yields a tree with the induced-subtree property for every vertex.
    Raises ``ValueError`` on a non-chordal input.
    """
    cliques = maximal_cliques_chordal(graph)
    n = len(cliques)
    if n == 0:
        return CliqueTree(cliques=[], edges=[])
    # candidate edges between cliques sharing at least one vertex
    by_vertex: Dict[Vertex, List[int]] = {}
    for i, clique in enumerate(cliques):
        for v in clique:
            by_vertex.setdefault(v, []).append(i)
    candidates: Dict[Tuple[int, int], int] = {}
    for indices in by_vertex.values():
        for a in range(len(indices)):
            for b in range(a + 1, len(indices)):
                i, j = indices[a], indices[b]
                key = (i, j) if i < j else (j, i)
                candidates[key] = candidates.get(key, 0) + 1
    # Kruskal on -weight
    parent = list(range(n))

    def find(x: int) -> int:
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    edges: List[Tuple[int, int]] = []
    for (i, j), _w in sorted(candidates.items(), key=lambda kv: -kv[1]):
        ri, rj = find(i), find(j)
        if ri != rj:
            parent[ri] = rj
            edges.append((i, j))
    return CliqueTree(cliques=cliques, edges=edges)


def verify_clique_tree(graph: Graph, tree: CliqueTree) -> bool:
    """Check the induced-subtree property: for every vertex, the cliques
    containing it form a connected subtree.  Used by tests."""
    adj = tree.adjacency()
    for v, nodes in tree.subtree.items():
        if v not in graph:
            return False
        nodes = set(nodes)
        if not nodes:
            return False
        start = next(iter(nodes))
        seen = {start}
        stack = [start]
        while stack:
            x = stack.pop()
            for y in adj[x]:
                if y in nodes and y not in seen:
                    seen.add(y)
                    stack.append(y)
        if seen != nodes:
            return False
    return True


def make_chordal(graph: Graph) -> Graph:
    """A minimal-ish chordal supergraph (fill-in) of ``graph``.

    Eliminates vertices in minimum-degree order, turning each
    neighbourhood into a clique.  Not minimum fill-in (that is
    NP-complete) but a standard heuristic; used by generators and by the
    optimistic-reduction chordalization checks.
    """
    filled = graph.copy()
    work = graph.copy()
    while len(work):
        v = min(work.vertices, key=work.degree)
        nbrs = list(work.neighbors_view(v))
        for i in range(len(nbrs)):
            for j in range(i + 1, len(nbrs)):
                if not work.has_edge(nbrs[i], nbrs[j]):
                    work.add_edge(nbrs[i], nbrs[j])
                    filled.add_edge(nbrs[i], nbrs[j])
        work.remove_vertex(v)
    return filled
