"""Incremental conservative coalescing (Section 4, Theorems 4 and 5).

The problem: given a k-colorable graph and ONE affinity (x, y), decide
whether a k-colouring with f(x) = f(y) exists.

* On arbitrary k-colorable graphs this is NP-complete even for k = 3
  (Theorem 4) — :func:`incremental_coalescible_exact` answers it by
  exact search and is the oracle the reduction tests use.
* On **chordal** graphs it is polynomial (Theorem 5) —
  :func:`chordal_incremental_coalescible` implements the paper's
  algorithm: clique-tree path, subtree-to-interval projection, padding
  with short intervals, and a left-to-right marking (reachability) over
  disjoint contiguous intervals.

The chordal routine also returns a *witness*: the set of vertices to
merge with {x, y} so the coalesced graph stays chordal with unchanged
clique number — from which an explicit k-colouring with f(x) = f(y) is
recovered (``chordal_incremental_coloring``).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Dict, List, Optional, Sequence, Tuple

from ..graphs.chordal import (
    DenseCliqueTree,
    chordal_coloring,
    clique_tree,
)
from ..graphs.coloring import k_coloring_exact
from ..graphs.dense import DenseGraph
from ..graphs.graph import Graph, Vertex
from ..obs import NULL_TRACER, Tracer


def incremental_coalescible_exact(
    graph: Graph, x: Vertex, y: Vertex, k: int
) -> Optional[Dict[Vertex, int]]:
    """Exact answer on any graph: a k-colouring with f(x) = f(y), or
    None.  Exponential worst case (the problem is NP-complete)."""
    return k_coloring_exact(graph, k, same_color=[(x, y)])


@dataclass
class IntervalWitness:
    """Outcome of the Theorem 5 algorithm.

    ``mergeable`` — can x and y share a colour; ``chain`` — the vertices
    (other than x, y) whose subtrees form the disjoint interval chain
    covering the clique-tree path (empty when x, y sit in different
    connected components or the path is trivial); ``path`` — the clique
    indices of the path used.
    """

    mergeable: bool
    chain: List[Vertex]
    path: List[int]


def chordal_incremental_coalescible(
    graph: Graph, x: Vertex, y: Vertex, k: int, tracer: Tracer = NULL_TRACER
) -> IntervalWitness:
    """Theorem 5: polynomial incremental coalescing test on a chordal
    graph.

    Steps, following the paper's proof:

    1. If x and y interfere, or ω(G) > k, the answer is no.
    2. Build the clique tree; take the path P between the subtrees
       ``T_x`` and ``T_y``, trimmed so only its first node meets
       ``T_x`` and only its last meets ``T_y``.
    3. Project every vertex's subtree onto P — each projection is a
       contiguous interval because the intersection of two subtrees of
       a tree is connected.
    4. Pad every node of P to exactly k intervals with fresh
       single-node intervals (possible since each node is a clique of
       size ≤ ω(G) ≤ k).
    5. x and y can share a colour iff there is a chain of pairwise
       disjoint contiguous intervals from ``I_x`` to ``I_y`` covering P
       — found by a left-to-right marking in O(|V| · ω(G)).

    Steps 2–5 run on clique bitmasks (:func:`dense_incremental_coalescible`
    is the same test on a :class:`DenseGraph`).  ``tracer`` counts
    calls/verdicts and times the clique-tree and marking phases.
    """
    return _counted(tracer, lambda: _coalescible_impl(graph, x, y, k, tracer))


def dense_incremental_coalescible(
    dense: DenseGraph,
    tree: DenseCliqueTree,
    i: int,
    j: int,
    k: int,
    tracer: Tracer = NULL_TRACER,
) -> IntervalWitness:
    """Theorem 5 on a chordal :class:`DenseGraph`.

    ``tree`` is :func:`dense_clique_tree` of ``dense``.  Same steps and
    verdicts as :func:`chordal_incremental_coalescible`; ``chain``
    holds dense indices.  Callers merging many affinities keep ``tree``
    until the graph changes.
    """

    def impl() -> IntervalWitness:
        if k <= 0:
            return IntervalWitness(False, [], [])
        tracer.count("queries.interference")
        if dense.has_edge(i, j):
            return IntervalWitness(False, [], [])
        return _theorem5(tree.cliques, tree.edges, i, j, k, tracer)

    return _counted(tracer, impl)


def _counted(
    tracer: Tracer, impl: Callable[[], IntervalWitness]
) -> IntervalWitness:
    """Run one Theorem 5 test under the ``incremental.*`` counters."""
    tracer.count("incremental.calls")
    with tracer.span("incremental-test"):
        witness = impl()
    if witness.mergeable:
        tracer.count("incremental.mergeable")
    else:
        tracer.count("incremental.refused")
    tracer.count("incremental.path_nodes", len(witness.path))
    return witness


def _coalescible_impl(
    graph: Graph, x: Vertex, y: Vertex, k: int, tracer: Tracer
) -> IntervalWitness:
    if k <= 0:
        return IntervalWitness(False, [], [])
    tracer.count("queries.interference")
    if graph.has_edge(x, y):
        return IntervalWitness(False, [], [])
    with tracer.span("clique-tree"):
        tree = clique_tree(graph)
    names = list(graph.vertices)
    index = {v: i for i, v in enumerate(names)}
    bit = {v: 1 << i for v, i in index.items()}.__getitem__
    cliques = [sum(map(bit, c)) for c in tree.cliques]
    # a missing vertex gets an index no clique holds: _theorem5 raises
    witness = _theorem5(
        cliques, tree.edges, index.get(x, len(names)),
        index.get(y, len(names)), k, tracer,
    )
    witness.chain = [names[v] for v in witness.chain]
    return witness


def _theorem5(
    cliques: Sequence[int],
    edges: Sequence[Tuple[int, int]],
    x: int,
    y: int,
    k: int,
    tracer: Tracer,
) -> IntervalWitness:
    """Steps 1–5 for non-adjacent indices ``x`` and ``y`` of a clique
    tree whose cliques are bitmasks."""
    if max(map(int.bit_count, cliques), default=0) > k:
        return IntervalWitness(False, [], [])
    bx, by = 1 << x, 1 << y
    path = _tree_path_between(cliques, edges, bx, by)
    if path is None:
        # different connected components: colour them independently
        return IntervalWitness(True, [], [])
    masks = [cliques[t] for t in path]
    n = len(path)
    if n < 2:
        raise AssertionError("non-adjacent vertices share a maximal clique")

    # 3. project subtrees onto the path: a vertex's interval opens where
    # it enters a path clique and closes where it leaves the path
    hi_of: Dict[int, int] = {}
    for p in range(n):
        leaving = masks[p] & ~masks[p + 1] if p + 1 < n else masks[p]
        while leaving:
            low = leaving & -leaving
            hi_of[low.bit_length() - 1] = p
            leaving ^= low
    if hi_of[x] != 0 or hi_of[y] != n - 1:
        raise AssertionError("path trimming failed")

    # 4. how many fresh single-node intervals fit at each node: every
    # member of a path clique has an interval through it
    slack = [k - m.bit_count() for m in masks]

    # 5. marking: reached[p] = a disjoint chain from I_x ends exactly at
    # p; real intervals other than I_x, I_y listed by their first node
    by_lo: List[List[Tuple[int, int]]] = []
    prev = bx | by
    for m in masks:
        starts = m & ~prev
        row: List[Tuple[int, int]] = []
        while starts:
            low = starts & -starts
            v = low.bit_length() - 1
            row.append((hi_of[v], v))
            starts ^= low
        by_lo.append(row)
        prev = m | bx | by
    parent: Dict[int, Tuple[int, int]] = {}
    frontier = [0]
    reached = [False] * n
    reached[0] = True
    with tracer.span("marking"):
        while frontier:
            p = frontier.pop()
            nxt = p + 1
            if nxt > n - 1:
                continue
            # fresh single-node interval at nxt
            if slack[nxt] > 0 and not reached[nxt] and nxt != n - 1:
                reached[nxt] = True
                parent[nxt] = (p, -1)
                frontier.append(nxt)
            for hi, v in by_lo[nxt]:  # real intervals starting at nxt
                if hi <= n - 2 and not reached[hi]:
                    reached[hi] = True
                    parent[hi] = (p, v)
                    frontier.append(hi)
    # the chain must hand over to I_y = [n-1, n-1]
    if not reached[n - 2]:
        return IntervalWitness(False, [], path)

    # reconstruct the chain of real vertices
    chain: List[int] = []
    p = n - 2
    while p != 0:
        p, v = parent[p]
        if v >= 0:
            chain.append(v)
    chain.reverse()
    return IntervalWitness(True, chain, path)


def _tree_path_between(
    cliques: Sequence[int], edges: Sequence[Tuple[int, int]], bx: int, by: int
) -> Optional[List[int]]:
    """The clique-tree path from ``T_x`` to ``T_y`` (the cliques holding
    bit ``bx``, resp. ``by``), trimmed so only its endpoints belong to
    the respective subtrees.  None when they lie in different
    components.

    Breadth-first from one clique of ``T_x`` to the nearest clique of
    ``T_y``; in a tree the path meets each subtree in a contiguous run,
    so cutting it at its last ``T_x`` clique leaves the bridge.
    """
    start = next((t for t, c in enumerate(cliques) if c & bx), -1)
    if start < 0 or not any(c & by for c in cliques):
        raise KeyError("x and y must be vertices of the graph")
    adj: List[List[int]] = [[] for _ in cliques]
    for a, b in edges:
        adj[a].append(b)
        adj[b].append(a)
    prev = [-1] * len(cliques)
    prev[start] = start
    queue = [start]
    end = -1
    for node in queue:
        if cliques[node] & by:
            end = node
            break
        for t in adj[node]:
            if prev[t] < 0:
                prev[t] = node
                queue.append(t)
    if end < 0:
        return None
    path = [end]
    while prev[path[-1]] != path[-1]:
        path.append(prev[path[-1]])
    path.reverse()
    last_from = max(i for i, t in enumerate(path) if cliques[t] & bx)
    return path[last_from:]


def chordal_incremental_coloring(
    graph: Graph, x: Vertex, y: Vertex, k: int
) -> Optional[Dict[Vertex, int]]:
    """An explicit k-colouring with f(x) = f(y) on a chordal graph, or
    None.

    Uses the witness chain from Theorem 5: merging x, y, and the chain
    vertices yields a chordal graph with ω ≤ k; its optimal colouring is
    pulled back to the original vertices.
    """
    witness = chordal_incremental_coalescible(graph, x, y, k)
    if not witness.mergeable:
        return None
    merged = graph.copy()
    group = [x, *witness.chain, y]
    rep = group[0]
    for v in group[1:]:
        rep = merged.merge_in_place(rep, v, into=rep)
    coloring = chordal_coloring(merged)
    if max(coloring.values(), default=-1) + 1 > k:
        raise AssertionError("witness merge raised the clique number")
    out = dict(coloring)
    for v in group:
        out[v] = coloring[rep]
    for v in graph.vertices:
        if v not in out:
            raise AssertionError(f"vertex {v!r} lost during merge")
    return out
