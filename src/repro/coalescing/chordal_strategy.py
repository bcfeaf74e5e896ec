"""A chordal-aware incremental conservative coalescing strategy.

Section 4 of the paper, after Theorem 5: *"we could design an
incremental conservative coalescing strategy for chordal graphs.  If G
is chordal and (x, y) is an affinity that we absolutely want to
coalesce because the corresponding move is expensive, we can decide if
this is possible.  [...] if we coalesce the affinity, the graph may not
be chordal anymore.  However, we can still make it chordal by an
appropriate merge of vertices (as we do in the proof of the theorem)."*

This module implements exactly that strategy:

1. process affinities by decreasing weight;
2. for each affinity (x, y), run the polynomial Theorem 5 test on the
   *current* (chordal) graph with the original palette k;
3. if mergeable, merge x, y **and the witness chain** — the proof's
   construction — which keeps the graph chordal with clique number ≤ k,
   so the invariant holds for the next affinity.  (Chain members are
   pairwise non-adjacent: if two chain subtrees met off the path, the
   tree path from the meeting node to P would land in both projections,
   contradicting interval disjointness.)

The paper also warns: *"these artificial merges may prevent to coalesce
more important affinities afterwards"* — which is why affinities are
taken in weight order and why the strategy is measured against the
others in ``benchmarks/bench_ablation_strategies.py``.
"""

from __future__ import annotations

from typing import Dict, List

from ..graphs.chordal import dense_clique_tree
from ..graphs.graph import Vertex
from ..graphs.interference import Coalescing, InterferenceGraph
from ..obs import NULL_TRACER, Tracer
from .base import CoalescingResult, affinities_by_weight
from .incremental import dense_incremental_coalescible


def chordal_incremental_coalesce(
    graph: InterferenceGraph, k: int, tracer: Tracer = NULL_TRACER
) -> CoalescingResult:
    """Run the chordal incremental strategy on a chordal k-colorable
    interference graph.

    Raises ``ValueError`` if the input graph is not chordal or its
    clique number exceeds ``k``.  The result's quotient is chordal with
    ω ≤ k — hence greedy-k-colorable (Property 1).

    The work graph is a copy of the graph's dense twin
    (:meth:`~repro.graphs.graph.Graph.dense`): each merged group takes
    a fresh last slot (:meth:`~repro.graphs.dense.DenseGraph.add_vertex`
    then :meth:`~repro.graphs.dense.DenseGraph.merge_group`), and its
    clique tree (:func:`dense_clique_tree`) is rebuilt only after a
    merge, so rejected affinities reuse it.  Until the first merge the
    tree is the twin's own, which the twin keeps: the copy has the
    twin's rows, so it is the tree a walk of the copy would build.
    """
    twin = graph.dense()
    tree = dense_clique_tree(twin)
    work = twin.copy()
    if tree is None:
        raise ValueError("input graph must be chordal")
    if len(graph) and tree.clique_number() > k:
        raise ValueError("input graph has a clique larger than k")

    coalescing = Coalescing(graph)
    # each live slot of `work` stands for one coalescing class; `owner`
    # maps it to an original vertex of that class, `slot` maps a class
    # representative to its slot
    owner: List[Vertex] = list(work.names)
    slot: Dict[Vertex, int] = dict(work.index)

    tracer.count("affinities.total", graph.num_affinities())
    with tracer.span("chordal-incremental"):
        for u, v, w in affinities_by_weight(graph):
            su = slot[coalescing.find(u)]
            sv = slot[coalescing.find(v)]
            if su == sv:
                continue
            tracer.count("queries.interference")
            if work.has_edge(su, sv):
                tracer.count("moves.constrained")
                continue
            tracer.count("moves.attempted")
            witness = dense_incremental_coalescible(
                work, tree, su, sv, k, tracer=tracer
            )
            if not witness.mergeable:
                tracer.count("moves.rejected")
                continue
            tracer.count("moves.coalesced")
            tracer.count("chordal.chain_merges", len(witness.chain))
            # merge x, y and the witness chain so the graph stays chordal
            # with unchanged clique number (the proof's construction)
            group = [su, *witness.chain, sv]
            for member in group[1:]:
                coalescing.union(owner[su], owner[member])
            merged = work.add_vertex(work.names[su])
            work.merge_group([merged, *group])
            owner.append(owner[su])
            slot[coalescing.find(u)] = merged
            tree = dense_clique_tree(work)
            if tree is None:
                raise AssertionError("witness merge broke chordality")

    return CoalescingResult(
        graph=graph, coalescing=coalescing, strategy="chordal")
