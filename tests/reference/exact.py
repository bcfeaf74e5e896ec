"""The union-find branch and bounds: the test oracles for
:func:`repro.coalescing.exact.optimal_coalescing`.

:func:`aggressive_coalesce_exact` (Theorem 2) and
:func:`optimal_conservative_coalescing` (Theorem 3) walk the affinities
in :func:`~repro.coalescing.base.affinities_by_weight` order on the
dict union-find :class:`~tests.reference.partition.DictCoalescing`,
copy the whole union-find at every merge branch and, for the
conservative targets, build the dict quotient at every node.  The dense search must return
the same partition and label and visit the same number of nodes.
"""

from __future__ import annotations

from typing import List, Optional

from repro.budget import Budget
from repro.coalescing.base import CoalescingResult, affinities_by_weight
from repro.graphs.coloring import is_k_colorable
from repro.graphs.greedy import is_greedy_k_colorable
from repro.graphs.interference import Coalescing, InterferenceGraph

from .partition import DictCoalescing


def aggressive_coalesce_exact(
    graph: InterferenceGraph, node_limit: int = 2_000_000
) -> CoalescingResult:
    """Optimal aggressive coalescing by branch-and-bound.

    Maximizes the total coalesced weight.  Branches on each affinity
    (coalesce / give up) in decreasing-weight order; prunes when the
    already-given-up weight cannot beat the best solution found.
    Exponential in the number of affinities — use on reduction-sized
    instances only.  ``node_limit`` guards against runaway instances
    (raises ``RuntimeError`` when exceeded).
    """
    affinities = affinities_by_weight(graph)
    total = sum(w for _, _, w in affinities)
    best_given_up = [float("inf")]
    best_choice: List[Optional[List[bool]]] = [None]
    nodes = [0]

    choice: List[bool] = []

    def recurse(i: int, coalescing: DictCoalescing, given_up: float) -> None:
        nodes[0] += 1
        if nodes[0] > node_limit:
            raise RuntimeError("aggressive_coalesce_exact: node limit hit")
        if given_up >= best_given_up[0]:
            return
        if i == len(affinities):
            best_given_up[0] = given_up
            best_choice[0] = list(choice)
            return
        u, v, w = affinities[i]
        if coalescing.same_class(u, v):
            choice.append(True)
            recurse(i + 1, coalescing, given_up)
            choice.pop()
            return
        if coalescing.can_union(u, v):
            # try coalescing first (no cost)
            snapshot = _snapshot(coalescing)
            coalescing.union(u, v)
            choice.append(True)
            recurse(i + 1, coalescing, given_up)
            choice.pop()
            _restore(coalescing, snapshot)
        choice.append(False)
        recurse(i + 1, coalescing, given_up + w)
        choice.pop()

    recurse(0, DictCoalescing(graph), 0.0)

    # replay the best choice to build the result; affinities that ended
    # up in the same class transitively count as coalesced even if the
    # search marked them "given up" (their accounted cost was an upper
    # bound, matched exactly on the canonical path to this partition)
    coalescing = Coalescing(graph)
    assert best_choice[0] is not None
    for (u, v, _), take in zip(affinities, best_choice[0]):
        if take:
            coalescing.union(u, v)
    return CoalescingResult(
        graph=graph, coalescing=coalescing, strategy="aggressive")


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

    def quotient(c: DictCoalescing) -> InterferenceGraph:
        return c.coalesced_graph()

    def recurse(i: int, coalescing: DictCoalescing, cost: float) -> None:
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

    recurse(0, DictCoalescing(graph), 0.0)
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


def _snapshot(c: DictCoalescing):
    return (
        dict(c._parent),
        dict(c._rank),
        {k: set(v) for k, v in c._members.items()},
    )


def _restore(c: DictCoalescing, snap) -> None:
    parent, rank, members = snap
    c._parent = dict(parent)
    c._rank = dict(rank)
    c._members = {k: set(v) for k, v in members.items()}
