"""Perfect-graph utilities (Section 2.2).

The paper motivates chordal graphs through perfect graphs: "G is
perfect if each induced subgraph G' satisfies χ(G') = ω(G')"; interval,
path, and chordal graphs are perfect, and perfect graphs can be
coloured in polynomial time.  These routines make the definitions
executable for the (small) instances the tests use:

* :func:`is_perfect_brute` — the literal definition, exponential;
* :func:`odd_holes` / :func:`is_berge` — the strong perfect graph
  theorem's characterization (no odd hole in G or its complement),
  giving an independent check for small graphs;
* :func:`max_clique_exact` / :func:`chromatic_equals_clique` helpers.
"""

from __future__ import annotations

from itertools import combinations
from typing import Iterator, List, Set

from .coloring import chromatic_number
from .graph import Graph, Vertex


def max_clique_exact(graph: Graph) -> Set[Vertex]:
    """A maximum clique by branch and bound (small graphs only)."""
    best: List[Set[Vertex]] = [set()]
    order = sorted(graph.vertices, key=graph.degree, reverse=True)

    def expand(clique: Set[Vertex], candidates: List[Vertex]) -> None:
        if len(clique) + len(candidates) <= len(best[0]):
            return
        if not candidates:
            if len(clique) > len(best[0]):
                best[0] = set(clique)
            return
        v = candidates[0]
        rest = candidates[1:]
        # branch: include v
        expand(
            clique | {v},
            [u for u in rest if graph.has_edge(u, v)],
        )
        # branch: exclude v
        expand(clique, rest)

    expand(set(), order)
    return best[0]


def clique_number_exact(graph: Graph) -> int:
    """ω(G) by exact search."""
    return len(max_clique_exact(graph))


def chromatic_equals_clique(graph: Graph) -> bool:
    """χ(G) == ω(G)?  (Both computed exactly.)"""
    return chromatic_number(graph) == clique_number_exact(graph)


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
            if not chromatic_equals_clique(sub):
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
