"""Chordal-graph toolkit.

Chordal graphs are central to the paper: the interference graph of a
strict SSA program is chordal (Theorem 1), a k-colorable chordal graph is
greedy-k-colorable (Property 1), and incremental conservative coalescing
is polynomial on chordal graphs (Theorem 5, which needs the clique-tree
/ subtree representation of Golumbic Thm 4.8).

Algorithms here:

* maximum-cardinality search (MCS) producing a perfect elimination
  ordering when the graph is chordal — O(V+E);
* one bitmask walk along the MCS order (:func:`dense_clique_tree`)
  that checks the order is a PEO and yields the maximal cliques and
  the clique tree — a tree on the maximal cliques such that for every
  vertex the cliques containing it form a subtree (the representation
  used by Theorem 5) — (Blair & Peyton 1993).  Chordality, ω, the PEO,
  the maximal cliques and the clique tree all come from this walk;
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
    (:func:`repro.graphs.dense.mcs_order`): one bitmask bucket per
    visited-neighbour count, ties going to insertion order.
    """
    dense = graph.dense()
    return [dense.names[i] for i in _dense_mcs_order(dense, tracer=tracer)]


def perfect_elimination_ordering(graph: Graph) -> Optional[List[Vertex]]:
    """A PEO of ``graph``, or None if the graph is not chordal.

    The PEO is the reverse of the MCS order :func:`dense_clique_tree`
    walked and checked.
    """
    dense = graph.dense()
    tree = dense_clique_tree(dense)
    if tree is None:
        return None
    return [dense.names[i] for i in reversed(tree.order)]


def is_chordal(graph: Graph) -> bool:
    """True iff every cycle of length ≥ 4 has a chord."""
    return dense_clique_tree(graph.dense()) is not None


def simplicial_vertices(graph: Graph) -> List[Vertex]:
    """All vertices whose neighbourhood is a clique.

    Every chordal graph has at least one (and, unless complete, at least
    two) simplicial vertices; Property 1's proof peels them off.
    """
    return [v for v in graph.vertices if graph.is_clique(graph.neighbors_view(v))]


@dataclass(frozen=True)
class DenseCliqueTree:
    """The clique tree of a chordal :class:`DenseGraph`, as bitmasks.

    ``order`` is the MCS order the walk followed (its reverse is a
    PEO); ``cliques[i]`` is the i-th maximal clique as a bitmask over
    dense indices, listed in PEO order of each clique's earliest member
    (the :func:`maximal_cliques_chordal` order); ``edges`` are the tree
    edges over clique indices, in :func:`clique_tree` order.  All three
    are tuples and the tree is frozen: a graph's twin shares its tree
    with every reader.
    """

    order: Tuple[int, ...]
    cliques: Tuple[int, ...]
    edges: Tuple[Tuple[int, int], ...]

    def clique_number(self) -> int:
        """ω of the graph: the largest clique's size (0 when empty)."""
        return max(map(int.bit_count, self.cliques), default=0)


def dense_clique_tree(dense: DenseGraph) -> Optional[DenseCliqueTree]:
    """PEO check, maximal cliques and clique tree in one bitmask walk.

    Follows the MCS order (Blair & Peyton 1993); None if ``dense`` is
    not chordal.  ``later(v)`` — v's neighbours after it in the PEO —
    is ``adj[v]`` masked to the vertices MCS visited before v.  Its
    earliest PEO member ``p`` (the last of them MCS visited) comes from
    one backward sweep over the MCS order, in which each vertex claims
    its neighbours visited after it that no vertex claimed yet; the
    order is a PEO iff every ``later(v) \\ {p}`` lies inside
    ``adj[p]``, one mask test per vertex.  Vertex v starts a new
    clique exactly when ``|later(v)|`` does not grow over its
    predecessor's (this holds only for an MCS order); otherwise it
    joins the current clique.  A new clique hangs off the clique of
    ``p``, which holds all of ``later(v)``.  Cliques come out
    last-to-first and are reversed.  Dead slots are skipped.

    A graph's frozen twin (:meth:`~repro.graphs.graph.Graph.dense`)
    keeps its tree (:meth:`DenseGraph.kept`), so the chordality checks,
    the PEO and the chordal strategy's input tree walk each graph once;
    a mutable graph is walked on every call.
    """
    return dense.kept("clique_tree", _clique_tree_walk)


def _clique_tree_walk(dense: DenseGraph) -> Optional[DenseCliqueTree]:
    """The :func:`dense_clique_tree` computation itself."""
    order = _dense_mcs_order(dense)
    adj = dense.adj
    # one backward sweep: latest[v] is v's last-visited earlier
    # neighbour, the earliest PEO member of later(v) (-1 if none)
    latest = [-1] * dense.n
    waiting = 0  # visited after the current vertex, latest not found yet
    for u in reversed(order):
        found = adj[u] & waiting
        waiting ^= found
        while found:
            low = found & -found
            latest[low.bit_length() - 1] = u
            found ^= low
        waiting |= 1 << u
    clique_of = [-1] * dense.n
    walked: List[int] = []  # per walked clique, {v} ∪ later(v) of its latest joiner
    parents: List[int] = []
    last = -1  # the current clique's index in walked
    prev_card = 0
    seen = 0
    for v in order:
        bit = 1 << v
        lv = adj[v] & seen
        seen |= bit
        card = lv.bit_count()
        p = latest[v]
        if p >= 0 and lv & ~(adj[p] | 1 << p):
            return None
        if card <= prev_card:  # always true for the first vertex
            parents.append(clique_of[p] if p >= 0 else -1)
            walked.append(lv | bit)
            last += 1
        else:
            walked[last] = lv | bit
        clique_of[v] = last
        prev_card = card
    walked.reverse()
    # a list first: tuple() of a generator is resized from 10 slots,
    # stranding a tuple in CPython's free list on every tree
    edges = tuple([(last - s, last - p)
                   for s, p in enumerate(parents) if p >= 0])
    return DenseCliqueTree(order=tuple(order), cliques=tuple(walked),
                           edges=edges)


def _chordal_walk(graph: Graph) -> Tuple[List[Vertex], DenseCliqueTree]:
    """The dense walk of ``graph`` and its interning; ``ValueError`` on
    a non-chordal input."""
    dense = graph.dense()
    tree = dense_clique_tree(dense)
    if tree is None:
        raise ValueError("graph is not chordal")
    return dense.names, tree


def _clique_sets(
    names: Sequence[Vertex], cliques: Sequence[int]
) -> List[FrozenSet[Vertex]]:
    """Clique bitmasks as frozensets of vertex names."""
    out: List[FrozenSet[Vertex]] = []
    for mask in cliques:
        members = []
        while mask:
            low = mask & -mask
            members.append(names[low.bit_length() - 1])
            mask ^= low
        out.append(frozenset(members))
    return out


def maximal_cliques_chordal(graph: Graph) -> List[FrozenSet[Vertex]]:
    """The maximal cliques of a chordal graph.

    Each maximal clique is ``{v} ∪ later(v)`` for exactly one vertex v of
    the PEO (its earliest member); cliques are listed in the PEO order of
    those vertices.  A chordal graph has at most |V| maximal cliques.
    Raises ``ValueError`` on a non-chordal input.
    """
    names, tree = _chordal_walk(graph)
    return _clique_sets(names, tree.cliques)


def clique_number_chordal(graph: Graph) -> int:
    """ω(G) for a chordal graph (0 for the empty graph).

    Raises ``ValueError`` on a non-chordal input.
    """
    return _chordal_walk(graph)[1].clique_number()


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
    """Build a clique tree of a chordal graph in O(V+E).

    The Blair–Peyton construction from a perfect elimination ordering
    (see :func:`dense_clique_tree`): every clique but the first of each
    component gets one edge, to the clique holding its separator.  The
    result is a maximum-weight spanning tree of the clique-intersection
    graph, so every vertex's cliques form a subtree.  ``cliques`` is in
    :func:`maximal_cliques_chordal` order.  Raises ``ValueError`` on a
    non-chordal input.
    """
    names, tree = _chordal_walk(graph)
    return CliqueTree(cliques=_clique_sets(names, tree.cliques),
                      edges=list(tree.edges))


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
