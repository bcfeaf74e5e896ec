"""Exact optimal conservative coalescing for small instances.

The optimization version of Theorem 3's problem: coalesce a
maximum-weight set of affinities such that the quotient graph stays
k-colorable (or greedy-k-colorable).  NP-complete, so this module is a
branch-and-bound intended as the ground-truth baseline for the strategy
comparison benches and the reduction tests.

Key pruning fact: *k-colorability is anti-monotone under coalescing* —
merging more vertices can only make colouring harder — so a partial
merge whose quotient is already not k-colorable can be pruned for the
"k-colorable" target, and serves as a relaxation bound for the
"greedy" target (greedy-k-colorable graphs are k-colorable).
"""

from __future__ import annotations

from typing import List, Optional

from ..budget import Budget
from ..graphs.coloring import is_k_colorable
from ..graphs.greedy import is_greedy_k_colorable
from ..graphs.interference import Coalescing, InterferenceGraph
from .base import CoalescingResult, affinities_by_weight


def optimal_conservative_coalescing(
    graph: InterferenceGraph,
    k: int,
    target: str = "greedy",
    node_limit: int = 500_000,
    budget: Optional[Budget] = None,
) -> CoalescingResult:
    """Branch-and-bound optimum of conservative coalescing.

    ``target`` is "greedy" (quotient must be greedy-k-colorable — what
    heuristics actually maintain) or "kcolorable" (plain
    k-colorability, the paper's base problem).  Maximizes coalesced
    weight = minimizes the residual move cost K.

    Raises ``RuntimeError`` past ``node_limit`` search nodes.  An
    optional :class:`repro.budget.Budget` is checked at every search
    node and raises the typed :exc:`repro.budget.BudgetExceeded`
    (a ``RuntimeError`` subclass) — the cooperative in-process timeout
    the :mod:`repro.engine` worker pool relies on.
    """
    if target not in ("greedy", "kcolorable"):
        raise ValueError(f"unknown target {target!r}")
    affinities = affinities_by_weight(graph)
    suffix_weight = [0.0] * (len(affinities) + 1)
    for i in range(len(affinities) - 1, -1, -1):
        suffix_weight[i] = suffix_weight[i + 1] + affinities[i][2]

    final_check = (
        is_greedy_k_colorable if target == "greedy" else is_k_colorable
    )
    best_cost = [float("inf")]
    best_sets: List[Optional[List[bool]]] = [None]
    nodes = [0]
    choice: List[bool] = []

    def quotient(c: Coalescing) -> InterferenceGraph:
        return c.coalesced_graph()

    def recurse(i: int, coalescing: Coalescing, cost: float) -> None:
        nodes[0] += 1
        if nodes[0] > node_limit:
            raise RuntimeError("optimal_conservative_coalescing: node limit")
        if budget is not None:
            budget.check()
        if cost >= best_cost[0]:
            return
        if i == len(affinities):
            if final_check(quotient(coalescing), k):
                best_cost[0] = cost
                best_sets[0] = list(choice)
            return
        u, v, w = affinities[i]
        if coalescing.same_class(u, v):
            choice.append(True)
            recurse(i + 1, coalescing, cost)
            choice.pop()
            return
        if coalescing.can_union(u, v):
            snap = _snapshot(coalescing)
            coalescing.union(u, v)
            # anti-monotonicity: a quotient that is not even k-colorable
            # can never recover by further merging
            if is_k_colorable(quotient(coalescing), k):
                choice.append(True)
                recurse(i + 1, coalescing, cost)
                choice.pop()
            _restore(coalescing, snap)
        choice.append(False)
        recurse(i + 1, coalescing, cost + w)
        choice.pop()

    recurse(0, Coalescing(graph), 0.0)
    if best_sets[0] is None:
        raise ValueError(
            f"graph admits no {target} quotient at all with k={k} "
            "(input not k-colorable)"
        )

    coalescing = Coalescing(graph)
    for (u, v, _), take in zip(affinities, best_sets[0]):
        if take:
            coalescing.union(u, v)
    return CoalescingResult(
        graph=graph, coalescing=coalescing,
        strategy="exact" if target == "greedy" else "exact-kcolorable")


def _snapshot(c: Coalescing):
    return (
        dict(c._parent),
        dict(c._rank),
        {k: set(v) for k, v in c._members.items()},
    )


def _restore(c: Coalescing, snap) -> None:
    parent, rank, members = snap
    c._parent = dict(parent)
    c._rank = dict(rank)
    c._members = {k: set(v) for k, v in members.items()}
