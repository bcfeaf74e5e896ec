"""Vertex cover: the source problem of the Theorem 6 reduction.

NP-complete even when every vertex has degree ≤ 3 (Garey, Johnson &
Stockmeyer) — exactly the restriction Theorem 6 uses, since each vertex
structure in the optimistic-coalescing reduction has three connection
points.
"""

from __future__ import annotations

import random
from typing import List, Optional, Set

from ..graphs.graph import Graph, Vertex


def is_vertex_cover(graph: Graph, cover: Set[Vertex]) -> bool:
    """True iff every edge has an endpoint in ``cover``."""
    return all(u in cover or v in cover for u, v in graph.edges())


def min_vertex_cover(graph: Graph) -> Set[Vertex]:
    """An exact minimum vertex cover by branch-and-bound.

    Branches on an uncovered edge (either endpoint must join the
    cover); with a greedy 2-approximation as the initial incumbent.
    Exponential worst case, fast on the degree-≤ 3 instances the
    Theorem 6 tests use.
    """
    best: List[Set[Vertex]] = [greedy_vertex_cover(graph)]

    def recurse(work: Graph, cover: Set[Vertex]) -> None:
        if len(cover) >= len(best[0]):
            return
        edge = next(work.edges(), None)
        if edge is None:
            best[0] = set(cover)
            return
        u, v = edge
        for pick in (u, v):
            sub = work.copy()
            sub.remove_vertex(pick)
            cover.add(pick)
            recurse(sub, cover)
            cover.discard(pick)

    recurse(graph.copy(), set())
    return best[0]


def greedy_vertex_cover(graph: Graph) -> Set[Vertex]:
    """The classic 2-approximation: repeatedly take both endpoints of
    an uncovered edge."""
    work = graph.copy()
    cover: Set[Vertex] = set()
    while True:
        edge = next(work.edges(), None)
        if edge is None:
            return cover
        u, v = edge
        cover.update((u, v))
        work.remove_vertex(u)
        work.remove_vertex(v)


def has_vertex_cover(graph: Graph, budget: int) -> bool:
    """Decision form: is there a cover of size ≤ budget?"""
    return len(min_vertex_cover(graph)) <= budget


def random_low_degree_graph(
    n: int,
    num_edges: int,
    max_degree: int = 3,
    rng: Optional[random.Random] = None,
    prefix: str = "v",
    seed: Optional[int] = None,
) -> Graph:
    """A random graph with maximum degree ≤ ``max_degree`` (default 3,
    the Theorem 6 restriction).  Pass ``rng=`` or ``seed=`` explicitly."""
    from ..graphs.generators import resolve_rng

    rng = resolve_rng(rng, seed, "random_low_degree_graph")
    g = Graph(vertices=[f"{prefix}{i}" for i in range(n)])
    names = list(g.vertices)
    attempts = 0
    while g.num_edges() < num_edges and attempts < 50 * num_edges:
        attempts += 1
        u, v = rng.sample(names, 2)
        if g.has_edge(u, v):
            continue
        if g.degree(u) >= max_degree or g.degree(v) >= max_degree:
            continue
        g.add_edge(u, v)
    return g
