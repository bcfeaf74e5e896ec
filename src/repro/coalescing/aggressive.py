"""Aggressive coalescing (Section 3).

Remove as many moves as possible with *no* constraint on the number of
registers: only interferences can prevent a merge.  The optimization
problem is NP-complete (Theorem 2, by reduction from multiway cut), so
the library offers:

* :func:`aggressive_coalesce` — the standard greedy heuristic: process
  affinities by decreasing weight and union the endpoint classes
  whenever no interference crosses them (this is Briggs' aggressive
  phase and the classical out-of-SSA move-minimization);
* :func:`aggressive_coalesce_exact` — an exact branch-and-bound for the
  small instances used to validate the Theorem 2 reduction.
"""

from __future__ import annotations

from typing import List, Optional

from ..graphs.interference import Coalescing, InterferenceGraph
from ..obs import NULL_TRACER, Tracer
from .base import CoalescingResult, affinities_by_weight


def aggressive_coalesce(
    graph: InterferenceGraph, tracer: Tracer = NULL_TRACER
) -> CoalescingResult:
    """Greedy aggressive coalescing, heaviest affinities first."""
    coalescing = Coalescing(graph)
    tracer.count("affinities.total", graph.num_affinities())
    with tracer.span("aggressive"):
        for u, v, _ in affinities_by_weight(graph):
            if coalescing.same_class(u, v):
                tracer.count("moves.transitive")
                continue
            tracer.count("moves.attempted")
            tracer.count("queries.interference")
            if coalescing.can_union(u, v):
                coalescing.union(u, v)
                tracer.count("moves.coalesced")
            else:
                tracer.count("moves.constrained")
    return CoalescingResult(
        graph=graph, coalescing=coalescing, strategy="aggressive")


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

    def recurse(i: int, coalescing: Coalescing, given_up: float) -> None:
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

    recurse(0, Coalescing(graph), 0.0)

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
