"""Exact optimal coalescing for small instances.

One branch and bound serves both halves of the paper's hardness
results: optimal aggressive coalescing (Theorem 2, target ``"valid"``:
only interferences forbid a merge) and optimal conservative coalescing
(Theorem 3: the quotient must stay greedy-k-colourable, ``"greedy"``,
or k-colourable, ``"kcolorable"``).  All are NP-complete, so this is
the ground-truth baseline for the strategy comparison benches and the
reduction tests.

The search runs on the graph's dense twin (:meth:`Graph.dense()
<repro.graphs.graph.Graph.dense>`): a merge branch is a
:meth:`~repro.graphs.dense.DenseGraph.copy` with the two class slots
merged in place, so two classes interfere iff their slots are adjacent.

Key pruning fact: *k-colourability is anti-monotone under coalescing*
— merging more vertices can only make colouring harder — so a merge
whose quotient is already not k-colourable is pruned for both
conservative targets (greedy-k-colourable graphs are k-colourable).  A
graph is k-colourable iff its k-core is, so the exact colouring runs
only on what the greedy peel leaves.
"""

from __future__ import annotations

from typing import List, Optional

from ..budget import Budget
from ..graphs.coloring import is_k_colorable
from ..graphs.dense import DenseGraph, _iter_bits, greedy_core
from ..graphs.graph import Graph
from ..graphs.interference import Coalescing, InterferenceGraph
from .base import CoalescingResult, affinities_by_weight

# each target's result label: its name in the engine's strategy table
_LABELS = {"valid": "aggressive", "greedy": "exact",
           "kcolorable": "exact-kcolorable"}


def optimal_coalescing(
    graph: InterferenceGraph,
    k: int,
    target: str = "greedy",
    node_limit: int = 500_000,
    budget: Optional[Budget] = None,
) -> CoalescingResult:
    """Branch-and-bound optimum of aggressive or conservative coalescing.

    ``target`` is "valid" (aggressive coalescing, Section 3: any
    partition without an interference inside a class; ``k`` is
    unused), "greedy" (the quotient must be greedy-k-colourable — what
    the heuristics maintain) or "kcolorable" (plain k-colourability,
    the paper's base problem).  Maximizes the coalesced weight, i.e.
    minimizes the residual move cost K.  Branches on each affinity
    (coalesce, then give up) in decreasing-weight order and prunes
    when the given-up weight cannot beat the best solution found.

    Raises ``RuntimeError`` past ``node_limit`` search nodes.  An
    optional :class:`repro.budget.Budget` is checked at every search
    node and raises the typed :exc:`repro.budget.BudgetExceeded`
    (a ``RuntimeError`` subclass) — the cooperative in-process timeout
    the :mod:`repro.engine` worker pool relies on.
    """
    if target not in _LABELS:
        raise ValueError(f"unknown target {target!r}")
    affinities = affinities_by_weight(graph)
    twin = graph.dense()
    pairs = [(twin.index[u], twin.index[v], w) for u, v, w in affinities]
    best_cost = float("inf")
    best_choice: Optional[List[bool]] = None
    nodes = 0
    choice: List[bool] = []

    def colorable(q: DenseGraph) -> bool:
        core = greedy_core(q, k)
        return not core or is_k_colorable(_induced(q, core), k)

    def accepts(q: DenseGraph) -> bool:
        if target == "valid":
            return True
        if target == "greedy":
            return greedy_core(q, k) == 0
        return colorable(q)

    def recurse(i: int, q: DenseGraph, slot: List[int], cost: float) -> None:
        nonlocal best_cost, best_choice, nodes
        nodes += 1
        if nodes > node_limit:
            raise RuntimeError("optimal_coalescing: node limit")
        if budget is not None:
            budget.check()
        if cost >= best_cost:
            return
        if i == len(pairs):
            if accepts(q):
                best_cost = cost
                best_choice = list(choice)
            return
        u, v, w = pairs[i]
        su, sv = slot[u], slot[v]
        if su == sv:
            choice.append(True)
            recurse(i + 1, q, slot, cost)
            choice.pop()
            return
        if not q.has_edge(su, sv):
            merged = q.copy()
            merged.merge_in_place(su, sv)
            # anti-monotonicity: a quotient that is not even k-colourable
            # can never recover by further merging
            if target == "valid" or colorable(merged):
                choice.append(True)
                recurse(i + 1, merged, [su if s == sv else s for s in slot],
                        cost)
                choice.pop()
        choice.append(False)
        recurse(i + 1, q, slot, cost + w)
        choice.pop()

    recurse(0, twin, list(range(twin.n)), 0.0)
    if best_choice is None:
        raise ValueError(
            f"graph admits no {target} quotient at all with k={k} "
            "(input not k-colorable)"
        )

    # replay the best choice; affinities that ended up in one class
    # transitively count as coalesced even where the search gave them up
    coalescing = Coalescing(graph)
    for (u, v, _), take in zip(affinities, best_choice):
        if take:
            coalescing.union(u, v)
    return CoalescingResult(graph=graph, coalescing=coalescing,
                            strategy=_LABELS[target])


def _induced(q: DenseGraph, mask: int) -> Graph:
    """The subgraph of ``q`` induced by ``mask``, over slot indices."""
    return Graph(vertices=_iter_bits(mask), edges=(
        (i, j) for i in _iter_bits(mask)
        for j in _iter_bits(q.adj[i] & mask) if i < j))
