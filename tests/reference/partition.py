"""The dict union-find coalescing: the test oracle for
:class:`repro.graphs.interference.Coalescing`.

:class:`DictCoalescing` is the partition as a dict union-find over
vertex names (parent, rank and member sets per representative), with
the same rule as the slot-backed type: union by rank, the first
argument's representative winning a tie.  A property test checks that
both give the same verdict, representatives, classes, mapping and
quotient for any union sequence, and the branch and bounds of
:mod:`tests.reference.exact` copy and restore its dicts at every
branch.
"""

from __future__ import annotations

from typing import Dict, FrozenSet, List, Set, Tuple

from repro.graphs.graph import Vertex
from repro.graphs.interference import InterferenceGraph


class DictCoalescing:
    """A coalescing ``f`` of an interference graph (Section 2.1).

    Represented as a partition of the vertex set via union-find.  The
    invariant enforced at every union is that no class contains two
    interfering vertices — i.e. ``f`` is a valid colouring with an
    unbounded palette.
    """

    def __init__(self, graph: InterferenceGraph) -> None:
        self.graph = graph
        self._parent: Dict[Vertex, Vertex] = {v: v for v in graph.vertices}
        self._rank: Dict[Vertex, int] = {v: 0 for v in graph.vertices}
        # members of each class, keyed by representative
        self._members: Dict[Vertex, Set[Vertex]] = {v: {v} for v in graph.vertices}

    def find(self, v: Vertex) -> Vertex:
        """Representative of the class of ``v`` (path-halving)."""
        parent = self._parent
        while parent[v] != v:
            parent[v] = parent[parent[v]]
            v = parent[v]
        return v

    def same_class(self, u: Vertex, v: Vertex) -> bool:
        """True iff ``u`` and ``v`` are coalesced together."""
        return self.find(u) == self.find(v)

    def members(self, v: Vertex) -> FrozenSet[Vertex]:
        """All vertices in the class of ``v``."""
        return frozenset(self._members[self.find(v)])

    def can_union(self, u: Vertex, v: Vertex) -> bool:
        """True iff merging the classes of ``u`` and ``v`` is legal."""
        ru, rv = self.find(u), self.find(v)
        if ru == rv:
            return True
        graph = self.graph
        small, large = self._members[ru], self._members[rv]
        if len(small) > len(large):
            small, large = large, small
        return not any(
            (graph.neighbors_view(x) & large) for x in small
        )

    def union(self, u: Vertex, v: Vertex) -> bool:
        """Merge the classes of ``u`` and ``v``.

        Returns True on success; raises ``ValueError`` if the union would
        put two interfering vertices in the same class.  Returns True
        silently when already in the same class.
        """
        ru, rv = self.find(u), self.find(v)
        if ru == rv:
            return True
        if not self.can_union(ru, rv):
            raise ValueError(
                f"classes of {u!r} and {v!r} contain interfering vertices"
            )
        if self._rank[ru] < self._rank[rv]:
            ru, rv = rv, ru
        self._parent[rv] = ru
        if self._rank[ru] == self._rank[rv]:
            self._rank[ru] += 1
        self._members[ru] |= self._members.pop(rv)
        return True

    def classes(self) -> List[FrozenSet[Vertex]]:
        """All classes of the partition."""
        return [frozenset(s) for s in self._members.values()]

    def as_mapping(self) -> Dict[Vertex, Vertex]:
        """Map each vertex to its class representative."""
        return {v: self.find(v) for v in self.graph.vertices}

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

