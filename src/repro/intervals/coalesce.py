"""Interval-based coalescing: merge copies whose intervals disjoint.

The orzcc-style rule from the interval substrate: two copy-related
values may share a storage location exactly when their live intervals
do not intersect, so coalescing walks the affinities (heaviest first)
and merges the endpoint *classes* whenever the union of their range
lists stays pairwise disjoint.  By the occupancy convention of
:mod:`repro.intervals.model`, interference implies interval
intersection — so a merge justified by disjointness can never put two
interfering vertices in one class, and the ``Coalescing`` union-find
invariant holds by construction (no interference query needed).

Two entry points:

* :func:`interval_coalesce` — the engine/CLI strategy.  Works on a
  bare :class:`~repro.graphs.InterferenceGraph` (challenge instances
  carry no code), so it *synthesizes* intervals from the graph: with
  vertices laid out in sorted order, each vertex's span runs from its
  own position to its furthest neighbour's.  Adjacency then implies
  span overlap for any layout, which is all the rule needs.
* :func:`function_interval_coalesce` — the full-precision variant for
  lowered functions: real multi-range intervals with holes, so
  hole-disjoint values coalesce even when their envelopes overlap.

Like aggressive coalescing, the rule ignores the ``k`` constraint
(merging can raise the quotient's chromatic number), so the strategy
registers as non-conservative for translation validation.
"""

from __future__ import annotations

from typing import Dict

from ..coalescing.base import CoalescingResult, affinities_by_weight
from ..graphs.graph import Vertex
from ..graphs.interference import Coalescing, InterferenceGraph
from ..ir.cfg import Function
from ..ir.interference import chaitin_interference
from ..obs import EDGES_SCANNED, NULL_TRACER
from ..obs.tracer import Tracer
from .model import Ranges, build_intervals, merge_ranges, ranges_intersect

__all__ = ["interval_coalesce", "function_interval_coalesce"]


def _graph_spans(
    graph: InterferenceGraph, tracer: Tracer
) -> Dict[Vertex, Ranges]:
    """Synthetic one-range intervals from adjacency structure.

    Vertices take positions in sorted-name order; ``span(v)`` runs
    from ``pos(v)`` to the furthest position among ``v`` and its
    neighbours.  For adjacent ``u, v`` with ``pos(u) < pos(v)``:
    ``pos(v)`` lies in both spans, so adjacency ⇒ span overlap — the
    soundness direction the coalescing rule needs (the converse is
    deliberately conservative).
    """
    order = sorted(graph.vertices, key=str)
    pos = {v: i for i, v in enumerate(order)}
    counting = tracer.enabled
    spans: Dict[Vertex, Ranges] = {}
    for v in order:
        neighbors = graph.neighbors_view(v)
        end = pos[v]
        for u in neighbors:
            if pos[u] > end:
                end = pos[u]
        if counting:
            tracer.count(EDGES_SCANNED, len(neighbors))
        spans[v] = ((pos[v], end),)
    return spans


def _coalesce_by_ranges(
    graph: InterferenceGraph,
    ranges: Dict[Vertex, Ranges],
    tracer: Tracer,
) -> CoalescingResult:
    """Greedy merge of affinity classes with disjoint range lists."""
    coalescing = Coalescing(graph)
    # per-class merged range list, keyed by union-find representative
    class_ranges: Dict[Vertex, Ranges] = {
        v: ranges.get(v, ()) for v in graph.vertices
    }
    counting = tracer.enabled
    tracer.count("affinities.total", graph.num_affinities())
    with tracer.span("interval-coalesce"):
        for u, v, _ in affinities_by_weight(graph):
            ru, rv = coalescing.find(u), coalescing.find(v)
            if ru == rv:
                tracer.count("moves.transitive")
                continue
            tracer.count("moves.attempted")
            a, b = class_ranges[ru], class_ranges[rv]
            if counting:
                tracer.count(EDGES_SCANNED, len(a) + len(b))
            if ranges_intersect(a, b):
                tracer.count("moves.constrained")
                continue
            coalescing.union(ru, rv)
            root = coalescing.find(ru)
            class_ranges[root] = merge_ranges(a, b)
            tracer.count("moves.coalesced")
    return CoalescingResult(
        graph=graph, coalescing=coalescing, strategy="interval")


def interval_coalesce(
    graph: InterferenceGraph, tracer: Tracer = NULL_TRACER
) -> CoalescingResult:
    """Interval coalescing on a bare interference graph.

    Synthesizes spans from adjacency (see :func:`_graph_spans`) and
    merges copy-related classes whose spans are disjoint.  Like
    aggressive coalescing, it takes no register count: nothing bounds
    the merge but interference.  Returns a
    :class:`~repro.coalescing.base.CoalescingResult` with strategy
    ``"interval"``.
    """
    return _coalesce_by_ranges(graph, _graph_spans(graph, tracer), tracer)


def function_interval_coalesce(
    func: Function, tracer: Tracer = NULL_TRACER
) -> CoalescingResult:
    """Interval coalescing of a lowered function's real intervals.

    Builds the Chaitin interference graph (for affinities and the
    result's substrate) and the function's true multi-range intervals;
    classes merge when their interval unions stay disjoint, so
    hole-disjoint copies coalesce even with overlapping envelopes.
    """
    graph = chaitin_interference(func, weighted=True)
    iset = build_intervals(func, tracer=tracer)
    ranges: Dict[Vertex, Ranges] = {
        var: interval.ranges for var, interval in iset.intervals.items()
    }
    return _coalesce_by_ranges(graph, ranges, tracer)
