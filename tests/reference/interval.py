"""Interval graphs (Section 2.2's third perfect family).

Straight-line code produces interval interference graphs — the class
local register allocation lives in (Belady, linear scan).  This module
recognizes them through the classical Lekkerkerker–Boland
characterization: a graph is an interval graph iff it is chordal and
contains no *asteroidal triple* (three pairwise non-adjacent vertices
such that every pair is joined by a path avoiding the closed
neighbourhood of the third).

The AT check is the O(n³·(V+E)) textbook version — fine for the graph
sizes the tests and benches use.  ``interval_model`` builds an explicit
interval representation from a clique tree path when the graph is an
interval graph, closing the loop (the model is validated by
re-deriving the graph from it).
"""

from __future__ import annotations

from typing import Dict, List, Optional, Set, Tuple

from repro.graphs.chordal import clique_tree, is_chordal
from repro.graphs.graph import Graph, Vertex


def _reachable_avoiding(
    graph: Graph, start: Vertex, banned: Set[Vertex]
) -> Set[Vertex]:
    """Vertices reachable from ``start`` without entering ``banned``
    (``start`` must not be banned)."""
    seen = {start}
    stack = [start]
    while stack:
        x = stack.pop()
        for y in graph.neighbors_view(x):
            if y not in seen and y not in banned:
                seen.add(y)
                stack.append(y)
    return seen


def is_asteroidal_triple(
    graph: Graph, a: Vertex, b: Vertex, c: Vertex
) -> bool:
    """Check one triple: pairwise non-adjacent, and each pair connected
    by a path avoiding the third's closed neighbourhood."""
    triple = (a, b, c)
    for i in range(3):
        for j in range(i + 1, 3):
            if graph.has_edge(triple[i], triple[j]):
                return False
    for i in range(3):
        u, v = triple[(i + 1) % 3], triple[(i + 2) % 3]
        banned = set(graph.neighbors_view(triple[i])) | {triple[i]}
        if u in banned or v in banned:
            return False
        if v not in _reachable_avoiding(graph, u, banned):
            return False
    return True


def find_asteroidal_triple(graph: Graph) -> Optional[Tuple[Vertex, Vertex, Vertex]]:
    """Some asteroidal triple, or None.  Cubic in |V|."""
    vertices = sorted(graph.vertices, key=str)
    n = len(vertices)
    for i in range(n):
        for j in range(i + 1, n):
            a, b = vertices[i], vertices[j]
            if graph.has_edge(a, b):
                continue
            for k in range(j + 1, n):
                c = vertices[k]
                if is_asteroidal_triple(graph, a, b, c):
                    return (a, b, c)
    return None


def is_interval_graph(graph: Graph) -> bool:
    """Lekkerkerker–Boland: interval ⟺ chordal ∧ AT-free."""
    if not is_chordal(graph):
        return False
    return find_asteroidal_triple(graph) is None


def interval_model(graph: Graph) -> Optional[Dict[Vertex, Tuple[int, int]]]:
    """An explicit interval representation, or None.

    For an interval graph the clique tree can be arranged as a *path*
    (consecutive cliques ordering); each vertex's interval is the range
    of clique positions containing it.  We search for a Hamiltonian
    path of the clique tree greedily from each leaf — sufficient for
    the clique trees our generators produce — and validate the model
    by re-deriving the graph, falling back to None when no ordering is
    found (callers treat that as "don't know", and the tests only rely
    on positive answers).
    """
    if len(graph) == 0:
        return {}
    if not is_chordal(graph):
        return None
    tree = clique_tree(graph)
    n = len(tree.cliques)
    adj = tree.adjacency()
    # try to lay the cliques out as a path (consecutive arrangement)
    order = _path_order(adj, n)
    if order is None:
        return None
    position = {node: i for i, node in enumerate(order)}
    model: Dict[Vertex, Tuple[int, int]] = {}
    for v, nodes in tree.subtree.items():
        spots = [position[t] for t in nodes]
        model[v] = (min(spots), max(spots))
    # validate: the model must re-derive exactly the input graph
    vs = sorted(graph.vertices, key=str)
    for i, u in enumerate(vs):
        for v in vs[i + 1:]:
            lu, hu = model[u]
            lv, hv = model[v]
            overlap = lu <= hv and lv <= hu
            if overlap != graph.has_edge(u, v):
                return None
    return model


def _path_order(adj: Dict[int, Set[int]], n: int) -> Optional[List[int]]:
    """A Hamiltonian path of a tree, if the tree *is* a path (possibly
    a forest of paths, concatenated)."""
    if n == 0:
        return []
    order: List[int] = []
    visited: Set[int] = set()
    for start in range(n):
        if start in visited or len(adj[start]) > 1:
            continue
        # walk the path from this endpoint
        prev: Optional[int] = None
        node: Optional[int] = start
        while node is not None:
            order.append(node)
            visited.add(node)
            nxt = [t for t in adj[node] if t != prev and t not in visited]
            if len(nxt) > 1:
                return None  # branching: not a path
            prev, node = node, (nxt[0] if nxt else None)
    if len(order) != n:
        # isolated nodes (degree 0) handled above via len(adj)==0<=1;
        # anything left means a cycle or branch
        return None
    return order
