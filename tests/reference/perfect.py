"""Perfect-graph oracles (Section 2.2).

The paper motivates chordal graphs through perfect graphs: "G is
perfect if each induced subgraph G' satisfies χ(G') = ω(G')"; interval,
path, and chordal graphs are perfect, and perfect graphs can be
coloured in polynomial time.  These routines make the definitions
executable for the (small) graphs the tests use:

* :func:`all_maximal_cliques` — Bron–Kerbosch with pivoting, the one
  exact clique search of the tests (the clique-tree walk of
  :mod:`repro.graphs.chordal` must find exactly its cliques on chordal
  graphs) and :func:`max_clique_exact` on top of it;
* :func:`is_perfect_brute` — the literal definition, exponential;
* :func:`odd_holes` / :func:`is_berge` — the strong perfect graph
  theorem's characterization (no odd hole in G or its complement),
  giving an independent check for small graphs.
"""

from __future__ import annotations

from itertools import combinations
from typing import FrozenSet, Iterator, List, Set

from repro.graphs.coloring import chromatic_number
from repro.graphs.graph import Graph, Vertex


def all_maximal_cliques(graph: Graph) -> Set[FrozenSet[Vertex]]:
    """Every maximal clique of ``graph`` by Bron–Kerbosch with pivoting
    (the empty graph has one, the empty clique)."""
    found: Set[FrozenSet[Vertex]] = set()

    def expand(r: Set[Vertex], p: Set[Vertex], x: Set[Vertex]) -> None:
        if not p and not x:
            found.add(frozenset(r))
            return
        pivot = max(p | x, key=lambda u: len(p & graph.neighbors_view(u)))
        for v in list(p - graph.neighbors_view(pivot)):
            nb = graph.neighbors_view(v)
            expand(r | {v}, p & nb, x & nb)
            p = p - {v}
            x = x | {v}

    expand(set(), set(graph.vertices), set())
    return found


def max_clique_exact(graph: Graph) -> FrozenSet[Vertex]:
    """A maximum clique: the largest of :func:`all_maximal_cliques`."""
    return max(all_maximal_cliques(graph), key=len)


def is_perfect_brute(graph: Graph, max_vertices: int = 10) -> bool:
    """The literal definition: χ = ω on *every* induced subgraph.

    Exponential in |V|; refuses graphs above ``max_vertices``.
    """
    vertices = list(graph.vertices)
    if len(vertices) > max_vertices:
        raise ValueError(
            f"brute perfection check limited to {max_vertices} vertices"
        )
    for r in range(1, len(vertices) + 1):
        for subset in combinations(vertices, r):
            sub = graph.subgraph(subset)
            if chromatic_number(sub) != len(max_clique_exact(sub)):
                return False
    return True


def chordless_cycles(graph: Graph, min_length: int = 4) -> Iterator[List[Vertex]]:
    """Enumerate chordless (induced) cycles of length ≥ ``min_length``.

    Each cycle is yielded once (up to rotation/reflection) as a vertex
    list.  Exponential; intended for small graphs and tests.
    """
    vertices = list(graph.vertices)
    position = {v: i for i, v in enumerate(vertices)}

    def extend(path: List[Vertex]) -> Iterator[List[Vertex]]:
        first, last = path[0], path[-1]
        for nxt in sorted(graph.neighbors_view(last), key=position.__getitem__):
            # the cycle's minimum-position vertex is the path start
            if position[nxt] <= position[first] or nxt in path:
                continue
            # induced: nxt may touch only the last path vertex (and
            # possibly first, when closing)
            if any(graph.has_edge(nxt, w) for w in path[1:-1]):
                continue
            if len(path) >= 2 and graph.has_edge(nxt, first):
                # nxt closes a cycle; extending past it would leave the
                # (nxt, first) edge as a chord.  Canonical direction:
                # the second vertex has smaller position than the last.
                if (
                    len(path) + 1 >= min_length
                    and position[path[1]] < position[nxt]
                ):
                    yield path + [nxt]
                continue
            yield from extend(path + [nxt])

    for v in vertices:
        yield from extend([v])


def odd_holes(graph: Graph) -> Iterator[List[Vertex]]:
    """Chordless odd cycles of length ≥ 5."""
    for cycle in chordless_cycles(graph, min_length=5):
        if len(cycle) % 2 == 1:
            yield cycle


def has_odd_hole(graph: Graph) -> bool:
    """True iff G contains a chordless odd cycle of length ≥ 5."""
    return next(odd_holes(graph), None) is not None


def is_berge(graph: Graph) -> bool:
    """No odd hole in G nor in its complement — by the strong perfect
    graph theorem (Chudnovsky–Robertson–Seymour–Thomas), equivalent to
    perfection.  Exponential; small graphs only."""
    return not has_odd_hole(graph) and not has_odd_hole(graph.complement())
