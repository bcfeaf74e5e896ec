"""Graph colouring: heuristics and exact solvers.

Exact k-colourability is the oracle against which the paper's reductions
are tested (Theorem 3 turns k-colourability into conservative
coalescing; Theorem 4 asks for a k-colouring with one equality
constraint).  DSATUR provides both a good heuristic and the branching
order for the exact backtracking solver.
"""

from __future__ import annotations

from typing import Dict, Iterable, List, Optional, Sequence, Set, Tuple

from ..obs import NULL_TRACER, Tracer
from .dense import greedy_coloring as _dense_greedy_coloring
from .graph import Graph, Vertex


def verify_coloring(graph: Graph, coloring: Dict[Vertex, int]) -> bool:
    """True iff ``coloring`` assigns every vertex a colour and no edge is
    monochromatic."""
    for v in graph.vertices:
        if v not in coloring:
            return False
    return all(coloring[u] != coloring[v] for u, v in graph.edges())


def greedy_coloring(
    graph: Graph,
    order: Optional[Sequence[Vertex]] = None,
    tracer: Tracer = NULL_TRACER,
) -> Dict[Vertex, int]:
    """First-fit colouring along ``order`` (default: insertion order).

    Routed through the dense bitset kernel
    (:func:`repro.graphs.dense.greedy_coloring`).
    """
    dense = graph.dense()
    idx_order = None if order is None else [dense.index[v] for v in order]
    colors = _dense_greedy_coloring(dense, order=idx_order, tracer=tracer)
    return {dense.names[i]: c for i, c in colors.items()}


def dsatur_coloring(graph: Graph) -> Dict[Vertex, int]:
    """DSATUR heuristic: colour the vertex of highest saturation first.

    Optimal on many structured graphs and a strong upper bound for the
    exact solver.
    """
    coloring: Dict[Vertex, int] = {}
    saturation: Dict[Vertex, Set[int]] = {v: set() for v in graph.vertices}
    uncolored: Set[Vertex] = set(graph.vertices)
    while uncolored:
        v = max(
            uncolored,
            key=lambda x: (len(saturation[x]), graph.degree(x), str(x)),
        )
        used = saturation[v]
        c = 0
        while c in used:
            c += 1
        coloring[v] = c
        uncolored.discard(v)
        for u in graph.neighbors_view(v):
            if u in uncolored:
                saturation[u].add(c)
    return coloring


def k_coloring_exact(
    graph: Graph,
    k: int,
    precolored: Optional[Dict[Vertex, int]] = None,
    same_color: Iterable[Tuple[Vertex, Vertex]] = (),
) -> Optional[Dict[Vertex, int]]:
    """An exact k-colouring by backtracking, or None if none exists.

    ``precolored`` pins colours of given vertices; ``same_color`` adds
    equality constraints (the incremental-coalescing question of
    Theorem 4: "is there a k-colouring with f(x) = f(y)?").  Equality
    constraints are handled by contracting the pairs first, which also
    detects immediate conflicts.

    Exponential worst case — intended for the small instances that the
    reduction tests and exact baselines use.
    """
    if k < 0:
        raise ValueError(f"k must be non-negative, got {k}")
    precolored = dict(precolored or {})
    for v, c in precolored.items():
        if not 0 <= c < k:
            return None

    # contract same_color pairs
    rep: Dict[Vertex, Vertex] = {v: v for v in graph.vertices}

    def find(v: Vertex) -> Vertex:
        while rep[v] != v:
            rep[v] = rep[rep[v]]
            v = rep[v]
        return v

    for u, v in same_color:
        ru, rv = find(u), find(v)
        if ru != rv:
            rep[ru] = rv
    contracted = Graph(vertices={find(v) for v in graph.vertices})
    for u, v in graph.edges():
        ru, rv = find(u), find(v)
        if ru == rv:
            return None  # equality constraint conflicts with an edge
        contracted.add_edge(ru, rv)
    pinned: Dict[Vertex, int] = {}
    for v, c in precolored.items():
        r = find(v)
        if r in pinned and pinned[r] != c:
            return None
        pinned[r] = c

    solution = _backtrack_k_coloring(contracted, k, pinned)
    if solution is None:
        return None
    return {v: solution[find(v)] for v in graph.vertices}


def _backtrack_k_coloring(
    graph: Graph, k: int, pinned: Dict[Vertex, int]
) -> Optional[Dict[Vertex, int]]:
    """DSATUR-ordered backtracking with forward checking."""
    coloring: Dict[Vertex, int] = {}
    domains: Dict[Vertex, Set[int]] = {
        v: set(range(k)) for v in graph.vertices
    }
    for v, c in pinned.items():
        domains[v] = {c}
    order_pool: Set[Vertex] = set(graph.vertices)

    def propagate(v: Vertex, c: int, trail: List[Tuple[Vertex, int]]) -> bool:
        for u in graph.neighbors_view(v):
            if u not in coloring and c in domains[u]:
                domains[u].discard(c)
                trail.append((u, c))
                if not domains[u]:
                    return False
        return True

    def undo(trail: List[Tuple[Vertex, int]]) -> None:
        for u, c in trail:
            domains[u].add(c)

    def solve() -> bool:
        if not order_pool:
            return True
        # most-constrained vertex first; break ties by degree
        v = min(
            order_pool,
            key=lambda x: (len(domains[x]), -graph.degree(x)),
        )
        order_pool.discard(v)
        # symmetry breaking: with no pinned colours, palette colours are
        # interchangeable, so a fresh vertex never needs a colour index
        # larger than (max used so far) + 1
        used_max = max(coloring.values(), default=-1)
        for c in sorted(domains[v]):
            if not pinned and c > used_max + 1:
                break
            coloring[v] = c
            trail: List[Tuple[Vertex, int]] = []
            if propagate(v, c, trail) and solve():
                return True
            undo(trail)
            del coloring[v]
        order_pool.add(v)
        return False

    if any(not d for d in domains.values()):
        return None
    if solve():
        return coloring
    return None


def is_k_colorable(graph: Graph, k: int) -> bool:
    """Exact k-colourability test (exponential worst case)."""
    return k_coloring_exact(graph, k) is not None


def chromatic_number(graph: Graph) -> int:
    """χ(G), exactly, by binary search between clique bound and DSATUR."""
    if len(graph) == 0:
        return 0
    upper_coloring = dsatur_coloring(graph)
    upper = max(upper_coloring.values()) + 1
    lower = 1 if graph.num_edges() == 0 else 2
    # tighten the lower bound with a greedy clique
    clique = _greedy_clique(graph)
    lower = max(lower, len(clique))
    while lower < upper:
        mid = (lower + upper) // 2
        if is_k_colorable(graph, mid):
            upper = mid
        else:
            lower = mid + 1
    return lower


def _greedy_clique(graph: Graph) -> List[Vertex]:
    """A maximal clique grown greedily from the highest-degree vertex."""
    if len(graph) == 0:
        return []
    clique: List[Vertex] = []
    candidates = set(graph.vertices)
    while candidates:
        v = max(candidates, key=graph.degree)
        clique.append(v)
        candidates &= graph.neighbors_view(v)
    return clique
