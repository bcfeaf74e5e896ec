"""Aggressive coalescing (Section 3).

Remove as many moves as possible with *no* constraint on the number of
registers: only interferences can prevent a merge.  The optimization
problem is NP-complete (Theorem 2, by reduction from multiway cut).
:func:`aggressive_coalesce` is the standard greedy heuristic: process
affinities by decreasing weight and union the endpoint classes whenever
no interference crosses them (this is Briggs' aggressive phase and the
classical out-of-SSA move-minimization).  The exact optimum, for the
small instances used to validate the Theorem 2 reduction, is
:func:`repro.coalescing.exact.optimal_coalescing` with target
``"valid"``.
"""

from __future__ import annotations

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
