"""Interference graphs with affinities.

An interference graph (Section 2.1 of the paper) is an undirected graph
whose vertices are variables/live ranges and whose edges are
*interferences*; on top of it, *affinities* record move instructions
between pairs of variables.  Coalescing an affinity ``(u, v)`` means
assigning ``u`` and ``v`` the same colour, which is only possible when
they do not interfere.

A :class:`Coalescing` is the function ``f`` of the paper: a partition of
the vertices into classes such that no class contains two interfering
vertices.  ``coalesced_graph`` builds :math:`G_f`.
"""

from __future__ import annotations

from typing import Any, Dict, FrozenSet, Hashable, ItemsView, Iterable, Iterator, List, Mapping, Optional, Set, Tuple

from .dense import _iter_bits
from .graph import Graph, Vertex

Affinity = Tuple[Vertex, Vertex]


def _key(u: Vertex, v: Vertex) -> FrozenSet[Vertex]:
    return frozenset((u, v))


class InterferenceGraph(Graph):
    """A graph with a parallel set of weighted affinities.

    Affinities are unordered pairs of distinct vertices, each with a
    positive weight (the dynamic execution count of the move).  An
    affinity may coexist with an interference edge on the same pair —
    this happens in real programs (e.g. a move between variables that
    also interfere elsewhere); such an affinity is *frozen*: it can never
    be coalesced, but it still counts in the "not coalesced" cost.
    """

    def __init__(
        self,
        vertices: Iterable[Vertex] = (),
        edges: Iterable[Tuple[Vertex, Vertex]] = (),
        affinities: Iterable[Affinity] = (),
    ) -> None:
        super().__init__(vertices, edges)
        self._affinities: Dict[FrozenSet[Vertex], float] = {}
        for u, v in affinities:
            self.add_affinity(u, v)

    # ------------------------------------------------------------------
    # affinities
    # ------------------------------------------------------------------
    def add_affinity(self, u: Vertex, v: Vertex, weight: float = 1.0) -> None:
        """Add (or re-weight, accumulating) the affinity ``(u, v)``."""
        if u == v:
            raise ValueError(f"affinity endpoints must differ, got {u!r}")
        if weight <= 0:
            raise ValueError(f"affinity weight must be positive, got {weight}")
        self.add_vertex(u)
        self.add_vertex(v)
        key = _key(u, v)
        self._affinities[key] = self._affinities.get(key, 0.0) + weight

    def remove_affinity(self, u: Vertex, v: Vertex) -> None:
        """Remove the affinity ``(u, v)``; raise ``KeyError`` if absent."""
        del self._affinities[_key(u, v)]

    def has_affinity(self, u: Vertex, v: Vertex) -> bool:
        """True iff there is an affinity between ``u`` and ``v``."""
        return _key(u, v) in self._affinities

    def affinity_weight(self, u: Vertex, v: Vertex) -> float:
        """Weight of the affinity ``(u, v)`` (0.0 if absent)."""
        return self._affinities.get(_key(u, v), 0.0)

    def affinities(self) -> Iterator[Tuple[Vertex, Vertex, float]]:
        """Iterate over ``(u, v, weight)`` triples, each affinity once.

        Endpoints are ordered by ``str`` so iteration is deterministic
        regardless of hash randomization.
        """
        for key, w in self._affinities.items():
            u, v = sorted(key, key=str)
            yield (u, v, w)

    def affinity_items(self) -> ItemsView[FrozenSet[Vertex], float]:
        """The affinities as ``(frozenset((u, v)), weight)`` items, in
        insertion order: :meth:`affinities` without ordering each
        pair's endpoints, for walks that treat a pair as unordered."""
        return self._affinities.items()

    def num_affinities(self) -> int:
        """Number of distinct affinity pairs."""
        return len(self._affinities)

    def total_affinity_weight(self) -> float:
        """Sum of all affinity weights."""
        return sum(self._affinities.values())

    def affinity_neighbors(self, v: Vertex) -> Set[Vertex]:
        """Vertices connected to ``v`` by an affinity."""
        out: Set[Vertex] = set()
        for key in self._affinities:
            if v in key:
                (other,) = key - {v}
                out.add(other)
        return out

    def coalescable_affinities(self) -> Iterator[Tuple[Vertex, Vertex, float]]:
        """Affinities whose endpoints do not (currently) interfere."""
        for u, v, w in self.affinities():
            if not self.has_edge(u, v):
                yield (u, v, w)

    # ------------------------------------------------------------------
    # overrides keeping affinities consistent
    # ------------------------------------------------------------------
    def remove_vertex(self, v: Vertex) -> None:
        """Remove ``v`` plus its edges and affinities."""
        super().remove_vertex(v)
        self._affinities = {
            key: w for key, w in self._affinities.items() if v not in key
        }

    def fingerprint(self) -> Tuple[Any, ...]:
        """:meth:`Graph.fingerprint` plus the affinities with their
        weights, in insertion order."""
        return (super().fingerprint(), tuple(self._affinities.items()))

    def matches(self, fingerprint: Tuple[Any, ...]) -> bool:
        """:meth:`Graph.matches` plus the affinities with their weights,
        in insertion order."""
        graph, affinities = fingerprint
        return (super().matches(graph)
                and tuple(self._affinities.items()) == affinities)

    def copy(self) -> "InterferenceGraph":
        """An independent deep copy (adjacency and affinities)."""
        g = InterferenceGraph()
        g._adj = {v: set(nbrs) for v, nbrs in self._adj.items()}
        g._affinities = dict(self._affinities)
        return g

    def subgraph(self, keep: Iterable[Vertex]) -> "InterferenceGraph":
        """The induced subgraph on ``keep``, affinities included."""
        keep_set = set(keep)
        base = super().subgraph(keep_set)
        g = InterferenceGraph()
        g._adj = base._adj
        g._affinities = {
            key: w for key, w in self._affinities.items() if key <= keep_set
        }
        return g

    def merge_in_place(self, u: Vertex, v: Vertex, into: Optional[Vertex] = None) -> Vertex:
        """Coalesce ``u`` and ``v`` destructively, folding affinities.

        Affinities incident to either endpoint are re-attached to the
        merged vertex, accumulating weights; the affinity between ``u``
        and ``v`` itself disappears (it has been coalesced).  An affinity
        whose re-attachment would coincide with an interference edge is
        kept: it becomes frozen (uncoalescable) but its weight still
        matters for the objective.
        """
        # snapshot first: the base merge removes u and v through
        # remove_vertex, which would strip their affinities
        old = dict(self._affinities)
        name = super().merge_in_place(u, v, into=into)
        self._affinities = {}
        for key, w in old.items():
            ends = set(key)
            if ends == {u, v}:
                continue  # the coalesced move itself
            renamed = {name if x in (u, v) else x for x in ends}
            if len(renamed) == 1:
                continue  # both endpoints merged into the same vertex
            a, b = tuple(renamed)
            new_key = _key(a, b)
            self._affinities[new_key] = self._affinities.get(new_key, 0.0) + w
        return name

    def merged(self, u: Vertex, v: Vertex, into: Optional[Vertex] = None) -> "InterferenceGraph":
        """A copy of the graph with ``u`` and ``v`` merged."""
        g = self.copy()
        g.merge_in_place(u, v, into=into)
        return g

    def __repr__(self) -> str:
        return (
            f"InterferenceGraph(|V|={len(self)}, |E|={self.num_edges()}, "
            f"|A|={self.num_affinities()})"
        )


class Coalescing:
    """A coalescing ``f`` of an interference graph (Section 2.1).

    A partition of the vertex set in which no class contains two
    interfering vertices, i.e. ``f`` is a valid colouring with an
    unbounded palette; every union checks it.  The partition lives on
    the slots of the graph's dense twin (:meth:`Graph.dense()
    <repro.graphs.graph.Graph.dense>`, taken when the coalescing is
    made): ``rep[i]`` is the representative slot of slot ``i``'s class,
    and ``groups`` and ``rows`` map the representative of every class of
    two or more members to the bitmask of its members and to the union
    of their interference rows, so a union is legal iff one row and one
    member mask share no bit.  Unions go by rank, the first argument's
    representative winning a tie; :meth:`find` names a class by its
    representative's vertex.
    """

    __slots__ = ("graph", "twin", "rep", "groups", "rows", "_rank")

    def __init__(self, graph: InterferenceGraph) -> None:
        self.graph = graph
        self.twin = graph.dense()
        self.rep: List[int] = list(range(self.twin.n))
        self.groups: Dict[int, int] = {}
        self.rows: Dict[int, int] = {}
        self._rank: Dict[int, int] = {}

    def find(self, v: Vertex) -> Vertex:
        """Representative of the class of ``v``."""
        twin = self.twin
        return twin.names[self.rep[twin.index[v]]]

    def same_class(self, u: Vertex, v: Vertex) -> bool:
        """True iff ``u`` and ``v`` are coalesced together."""
        index, rep = self.twin.index, self.rep
        return rep[index[u]] == rep[index[v]]

    def _names(self, r: int) -> FrozenSet[Vertex]:
        """The vertices of the class represented by slot ``r``."""
        names = self.twin.names
        return frozenset([names[i] for i in _iter_bits(self.groups.get(r, 1 << r))])

    def members(self, v: Vertex) -> FrozenSet[Vertex]:
        """All vertices in the class of ``v``."""
        return self._names(self.rep[self.twin.index[v]])

    def can_union(self, u: Vertex, v: Vertex) -> bool:
        """True iff merging the classes of ``u`` and ``v`` is legal."""
        index, rep = self.twin.index, self.rep
        ri, rj = rep[index[u]], rep[index[v]]
        return ri == rj or not (
            self.rows.get(ri, self.twin.adj[ri]) & self.groups.get(rj, 1 << rj))

    def union_slots(self, i: int, j: int) -> bool:
        """Merge the classes of slots ``i`` and ``j``; False, merging
        nothing, if that would put two interfering vertices in one
        class.  True when they already share one."""
        rep = self.rep
        ri, rj = rep[i], rep[j]
        if ri == rj:
            return True
        groups, rows, adj = self.groups, self.rows, self.twin.adj
        if rows.get(ri, adj[ri]) & groups.get(rj, 1 << rj):
            return False
        rank = self._rank
        rank_i, rank_j = rank.get(ri, 0), rank.get(rj, 0)
        if rank_i < rank_j:
            ri, rj = rj, ri
        elif rank_i == rank_j:
            rank[ri] = rank_i + 1
        moved = groups.pop(rj, 1 << rj)
        groups[ri] = groups.get(ri, 1 << ri) | moved
        rows[ri] = rows.get(ri, adj[ri]) | rows.pop(rj, adj[rj])
        while moved:
            low = moved & -moved
            moved ^= low
            rep[low.bit_length() - 1] = ri
        return True

    def union(self, u: Vertex, v: Vertex) -> bool:
        """Merge the classes of ``u`` and ``v``.

        Returns True on success; raises ``ValueError`` if the union would
        put two interfering vertices in the same class.  Returns True
        silently when already in the same class.
        """
        index = self.twin.index
        if not self.union_slots(index[u], index[v]):
            raise ValueError(
                f"classes of {u!r} and {v!r} contain interfering vertices"
            )
        return True

    def classes(self) -> List[FrozenSet[Vertex]]:
        """All classes of the partition, by representative in vertex
        order."""
        return [self._names(i) for i, r in enumerate(self.rep) if i == r]

    def as_mapping(self) -> Dict[Vertex, Vertex]:
        """Map each vertex to its class representative."""
        names = self.twin.names
        return {v: names[r] for v, r in zip(names, self.rep)}

    # ------------------------------------------------------------------
    # objective
    # ------------------------------------------------------------------
    def uncoalesced_affinities(self) -> List[Tuple[Vertex, Vertex, float]]:
        """Affinities whose endpoints are in different classes."""
        return [
            (u, v, w)
            for u, v, w in self.graph.affinities()
            if not self.same_class(u, v)
        ]

    def uncoalesced_weight(self) -> float:
        """Total weight of affinities not coalesced (the paper's cost K)."""
        return sum(w for _, _, w in self.uncoalesced_affinities())

    # ------------------------------------------------------------------
    # quotient
    # ------------------------------------------------------------------
    def coalesced_graph(self) -> InterferenceGraph:
        """The quotient graph :math:`G_f` (Section 2.1).

        Vertices are class representatives; there is an interference
        between two classes iff some pair across them interferes, and an
        affinity (with accumulated weight) iff some uncoalesced affinity
        crosses them.

        Built row-wise: each class's neighbour set is the union of its
        members' neighbourhoods mapped through the representative map,
        so no edge is visited one ``add_edge`` call at a time.  Vertices
        come in order of their class's first member.  A class that
        lands in its own neighbour set means two interfering vertices
        share it; only then are the edges rescanned, in
        :meth:`~repro.graphs.graph.Graph.edges` order, to name the first
        such pair in the ``ValueError``.
        """
        graph = self.graph
        rep = self.as_mapping()
        to_rep = rep.__getitem__
        g = InterferenceGraph()
        rows = g._adj
        for v in graph.vertices:
            rows.setdefault(to_rep(v), set()).update(
                map(to_rep, graph.neighbors_view(v)))
        if any(r in row for r, row in rows.items()):
            for u, v in graph.edges():
                if rep[u] == rep[v]:
                    raise ValueError(
                        f"invalid coalescing: {u!r} and {v!r} interfere "
                        "but share a class"
                    )
        for u, v, w in graph.affinities():
            ru, rv = rep[u], rep[v]
            if ru != rv and not g.has_edge(ru, rv):
                g.add_affinity(ru, rv, w)
        return g


def coalescing_from_mapping(
    graph: InterferenceGraph, mapping: Mapping[Vertex, Hashable]
) -> Coalescing:
    """Build a :class:`Coalescing` from any function on the vertices.

    Vertices with equal ``mapping`` values land in the same class.
    Raises ``ValueError`` if the induced partition is not a valid
    coalescing (two interfering vertices mapped together).
    """
    by_value: Dict[Hashable, List[Vertex]] = {}
    for v in graph.vertices:
        by_value.setdefault(mapping[v], []).append(v)
    coalescing = Coalescing(graph)
    for group in by_value.values():
        for other in group[1:]:
            coalescing.union(group[0], other)
    return coalescing
