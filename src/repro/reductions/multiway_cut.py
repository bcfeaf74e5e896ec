"""Multiway cut: the source problem of the Theorem 2 reduction.

Given a graph, k terminals, and a budget K: can K edge removals leave
every terminal in a different connected component?  NP-complete for
unit weights and k = 3 (Dahlhaus et al.), polynomial for k = 2
(min cut).

:func:`min_multiway_cut` is an exact branch-and-bound used as the
source-side oracle when validating the reduction.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from itertools import combinations
from typing import Dict, FrozenSet, Optional, Set, Tuple

from ..graphs.graph import Graph, Vertex


@dataclass
class MultiwayCutInstance:
    """A multiway-cut instance (unit edge weights)."""

    graph: Graph
    terminals: Tuple[Vertex, ...]

    def __post_init__(self) -> None:
        self.terminals = tuple(self.terminals)
        if len(set(self.terminals)) != len(self.terminals):
            raise ValueError("terminals must be distinct")
        for t in self.terminals:
            if t not in self.graph:
                raise ValueError(f"terminal {t!r} not in graph")


def separates(instance: MultiwayCutInstance, removed: Set[FrozenSet[Vertex]]) -> bool:
    """True iff removing the given edges disconnects all terminals
    pairwise."""
    graph = instance.graph
    seen: Dict[Vertex, int] = {}
    for idx, t in enumerate(instance.terminals):
        if t in seen:
            return False
        stack = [t]
        seen[t] = idx
        while stack:
            x = stack.pop()
            for y in graph.neighbors_view(x):
                if frozenset((x, y)) in removed:
                    continue
                if y in seen:
                    if seen[y] != idx:
                        return False
                    continue
                seen[y] = idx
                stack.append(y)
    return True


def min_multiway_cut(
    instance: MultiwayCutInstance, upper_bound: Optional[int] = None
) -> Set[FrozenSet[Vertex]]:
    """An exact minimum multiway cut by iterative deepening.

    For every size s = 0, 1, 2, ... try all s-subsets of edges.  Fine
    for the reduction-sized instances in tests and benches; the problem
    is NP-complete so no polynomial algorithm is expected.
    """
    edges = [frozenset(e) for e in instance.graph.edges()]
    limit = len(edges) if upper_bound is None else upper_bound
    for size in range(limit + 1):
        for subset in combinations(edges, size):
            removed = set(subset)
            if separates(instance, removed):
                return removed
    raise ValueError("no multiway cut within the bound (terminals equal?)")


def has_multiway_cut(instance: MultiwayCutInstance, budget: int) -> bool:
    """Decision form: is there a cut of size ≤ budget?"""
    try:
        return len(min_multiway_cut(instance, upper_bound=budget)) <= budget
    except ValueError:
        return False


def random_instance(
    n: int,
    p: float,
    num_terminals: int = 3,
    rng: Optional[random.Random] = None,
    seed: Optional[int] = None,
) -> MultiwayCutInstance:
    """A random Erdős–Rényi multiway-cut instance (pass ``rng=`` or
    ``seed=``; see :func:`repro.graphs.generators.resolve_rng`)."""
    from ..graphs.generators import random_graph, resolve_rng

    rng = resolve_rng(rng, seed, "random_instance")

    g = random_graph(n, p, rng)
    names = list(g.vertices)
    terminals = rng.sample(names, min(num_terminals, len(names)))
    return MultiwayCutInstance(graph=g, terminals=tuple(terminals))
