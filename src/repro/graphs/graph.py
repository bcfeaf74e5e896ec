"""Core undirected graph used throughout the library.

The paper's objects are interference graphs: undirected, simple (no loops,
no multi-edges), with vertices standing for live ranges.  This module
provides the plain structural graph; :mod:`repro.graphs.interference`
layers affinities (move edges) on top of it.

The representation is adjacency sets, the natural fit for the operations
the coalescing algorithms perform constantly: neighbourhood iteration,
degree queries, edge tests, and vertex merging.
"""

from __future__ import annotations

from operator import eq
from typing import TYPE_CHECKING, Any, Dict, FrozenSet, Hashable, Iterable, Iterator, Optional, Sequence, Set, Tuple

if TYPE_CHECKING:
    from .dense import DenseGraph

Vertex = Hashable
Edge = Tuple[Vertex, Vertex]


class Graph:
    """A simple undirected graph over hashable vertices.

    Edges are unordered pairs of distinct vertices.  Self-loops are
    rejected: in an interference graph a variable never interferes with
    itself, and a coalescing that would create a loop is illegal by
    definition (Section 2.1 of the paper).
    """

    def __init__(
        self,
        vertices: Iterable[Vertex] = (),
        edges: Iterable[Edge] = (),
    ) -> None:
        self._adj: Dict[Vertex, Set[Vertex]] = {}
        self._dense: Optional["DenseGraph"] = None
        for v in vertices:
            self.add_vertex(v)
        for u, v in edges:
            self.add_edge(u, v)

    # ------------------------------------------------------------------
    # construction
    # ------------------------------------------------------------------
    def add_vertex(self, v: Vertex) -> None:
        """Add ``v`` if not already present."""
        if v not in self._adj:
            self._adj[v] = set()
            self._dense = None

    def add_edge(self, u: Vertex, v: Vertex) -> None:
        """Add the undirected edge ``(u, v)``, adding endpoints as needed."""
        if u == v:
            raise ValueError(f"self-loop on {u!r} is not allowed")
        self.add_vertex(u)
        self.add_vertex(v)
        self._adj[u].add(v)
        self._adj[v].add(u)
        self._dense = None

    def add_edge_rows(self, names: Sequence[Vertex], rows: Iterable[int]) -> None:
        """Add the edges of bitmask rows over ``names`` in one pass.

        Bit ``j`` of ``rows[i]`` is the edge ``(names[i], names[j])``.
        Rows may be asymmetric (an edge set in either row is added in
        both directions), which is how bitmask builders such as
        :func:`repro.ir.interference.chaitin_interference` accumulate
        them.  Every name becomes a vertex, in order, if not already
        present.  A set diagonal bit is a self-loop: ``ValueError``.
        """
        for v in names:
            self.add_vertex(v)
        self._dense = None
        sets = [self._adj[v] for v in names]
        for i, row in enumerate(rows):
            vi = names[i]
            if row >> i & 1:
                raise ValueError(f"self-loop on {vi!r} is not allowed")
            mine = sets[i]
            while row:
                j = (row & -row).bit_length() - 1
                mine.add(names[j])
                sets[j].add(vi)
                row &= row - 1

    def remove_vertex(self, v: Vertex) -> None:
        """Remove ``v`` and all incident edges."""
        for u in self._adj.pop(v):
            self._adj[u].discard(v)
        self._dense = None

    def remove_edge(self, u: Vertex, v: Vertex) -> None:
        """Remove the edge ``(u, v)``; raise ``KeyError`` if absent."""
        if v not in self._adj.get(u, ()):
            raise KeyError(f"no edge ({u!r}, {v!r})")
        self._adj[u].discard(v)
        self._adj[v].discard(u)
        self._dense = None

    # ------------------------------------------------------------------
    # queries
    # ------------------------------------------------------------------
    @property
    def vertices(self) -> Iterable[Vertex]:
        """All vertices, in insertion order."""
        return self._adj.keys()

    def __contains__(self, v: Vertex) -> bool:
        return v in self._adj

    def __len__(self) -> int:
        return len(self._adj)

    def __iter__(self) -> Iterator[Vertex]:
        return iter(self._adj)

    def num_edges(self) -> int:
        """Number of (undirected) edges."""
        return sum(map(len, self._adj.values())) // 2

    def edges(self) -> Iterator[Edge]:
        """Iterate over each edge exactly once.

        Vertices follow insertion order and neighbours are sorted by
        ``str``, so iteration is deterministic regardless of hash
        randomization.
        """
        seen: Set[Vertex] = set()
        for u, nbrs in self._adj.items():
            for v in sorted(nbrs, key=str):
                if v not in seen:
                    yield (u, v)
            seen.add(u)

    def has_edge(self, u: Vertex, v: Vertex) -> bool:
        """True iff ``(u, v)`` is an edge."""
        return v in self._adj.get(u, ())

    def neighbors(self, v: Vertex) -> FrozenSet[Vertex]:
        """The neighbourhood of ``v`` as a frozen snapshot."""
        return frozenset(self._adj[v])

    def neighbors_view(self, v: Vertex) -> Set[Vertex]:
        """Live (mutable-by-graph) view of the adjacency set of ``v``.

        Cheaper than :meth:`neighbors`; callers must not mutate it and
        must not hold it across graph mutations.
        """
        return self._adj[v]

    def degree(self, v: Vertex) -> int:
        """Number of neighbours of ``v``."""
        return len(self._adj[v])

    def max_degree(self) -> int:
        """Maximum degree over all vertices (0 for the empty graph)."""
        if not self._adj:
            return 0
        return max(len(nbrs) for nbrs in self._adj.values())

    def is_clique(self, vertices: Iterable[Vertex]) -> bool:
        """True iff the given vertices are pairwise adjacent."""
        vs = list(vertices)
        return all(
            self.has_edge(vs[i], vs[j])
            for i in range(len(vs))
            for j in range(i + 1, len(vs))
        )

    # ------------------------------------------------------------------
    # derived graphs
    # ------------------------------------------------------------------
    def dense(self) -> "DenseGraph":
        """The graph's :class:`~repro.graphs.dense.DenseGraph` twin, built
        on first call and kept until a mutator of this graph drops it.

        Its ``adj`` and ``deg`` are tuples, so merging or removing on it
        raises ``TypeError``; kernels that mutate work on its ``copy()``.
        It keeps its :func:`~repro.graphs.dense.greedy_peel` per ``k``
        (``peels``), dropped with it.
        """
        if self._dense is None:
            from .dense import DenseGraph

            self._dense = DenseGraph.from_graph(self).freeze()
        return self._dense

    def copy(self) -> "Graph":
        """An independent structural copy."""
        g = Graph()
        g._adj = {v: set(nbrs) for v, nbrs in self._adj.items()}
        return g

    def subgraph(self, keep: Iterable[Vertex]) -> "Graph":
        """The induced subgraph on ``keep``.

        Vertices keep this graph's insertion order (not the order of
        ``keep``); each row is one set intersection.  A vertex of
        ``keep`` that is not in the graph raises ``KeyError``.
        """
        keep_set = set(keep)
        missing = keep_set - self._adj.keys()
        if missing:
            v = min(missing, key=str)
            raise KeyError(f"vertex {v!r} not in graph")
        g = Graph()
        g._adj = {
            v: nbrs & keep_set for v, nbrs in self._adj.items() if v in keep_set
        }
        return g

    def merged(self, u: Vertex, v: Vertex, into: Optional[Vertex] = None) -> "Graph":
        """A new graph with ``u`` and ``v`` merged into one vertex.

        This is the coalescing merge of Section 2.1: the merged vertex is
        adjacent to every former neighbour of either endpoint.  Merging
        adjacent vertices is illegal (it would create a loop).

        The merged vertex is named ``into`` (default: ``u``).
        """
        if self.has_edge(u, v):
            raise ValueError(f"cannot merge interfering vertices {u!r}, {v!r}")
        if u not in self._adj or v not in self._adj:
            raise KeyError("both endpoints must be in the graph")
        name = u if into is None else into
        g = self.copy()
        g.merge_in_place(u, v, into=name)
        return g

    def merge_in_place(self, u: Vertex, v: Vertex, into: Optional[Vertex] = None) -> Vertex:
        """Merge ``v`` into ``u`` destructively; return the merged vertex.

        Same semantics as :meth:`merged` but mutates this graph, which is
        what the iterated coalescing loops want.
        """
        if self.has_edge(u, v):
            raise ValueError(f"cannot merge interfering vertices {u!r}, {v!r}")
        name = u if into is None else into
        nbrs = (self._adj[u] | self._adj[v]) - {u, v, name}
        self.remove_vertex(u)
        self.remove_vertex(v)
        self.add_vertex(name)
        for w in nbrs:
            self.add_edge(name, w)
        return name

    # ------------------------------------------------------------------
    # global structure
    # ------------------------------------------------------------------
    def connected_components(self) -> Iterator[Set[Vertex]]:
        """Yield the vertex sets of the connected components."""
        seen: Set[Vertex] = set()
        for start in self._adj:
            if start in seen:
                continue
            component = {start}
            stack = [start]
            while stack:
                x = stack.pop()
                for y in self._adj[x]:
                    if y not in component:
                        component.add(y)
                        stack.append(y)
            seen |= component
            yield component

    def complement(self) -> "Graph":
        """The complement graph on the same vertex set."""
        g = Graph(vertices=self._adj)
        vs = list(self._adj)
        for i, u in enumerate(vs):
            for v in vs[i + 1:]:
                if v not in self._adj[u]:
                    g.add_edge(u, v)
        return g

    def fingerprint(self) -> Tuple[Any, ...]:
        """An exact snapshot of the adjacency, vertex order included.

        Two fingerprints compare equal iff the graphs had the same
        vertices in the same order with the same neighbourhoods; taken
        before and after handing the graph to code that should only
        read it, they prove it was not mutated.
        """
        return tuple(self._adj), tuple(map(frozenset, self._adj.values()))

    def matches(self, fingerprint: Tuple[Any, ...]) -> bool:
        """``self.fingerprint() == fingerprint``, without taking a second
        snapshot: the live vertex order and neighbour sets are compared
        with the stored ones directly, so the check is exactly as strict
        at a third of the cost."""
        order, rows = fingerprint
        adj = self._adj
        return tuple(adj) == order and all(map(eq, adj.values(), rows))

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Graph):
            return NotImplemented
        return self._adj == other._adj

    def __repr__(self) -> str:
        return f"Graph(|V|={len(self)}, |E|={self.num_edges()})"
