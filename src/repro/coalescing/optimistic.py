"""Optimistic coalescing (Section 5, after Park and Moon).

The "dual" of conservative coalescing: first coalesce *aggressively*
(ignoring colourability), then **de-coalesce** — give up as few moves as
possible until the graph is greedy-k-colorable again.  Deciding the
minimum number of moves to give up is NP-complete (Theorem 6, by
reduction from vertex cover), so the library provides:

* :func:`optimistic_coalesce` — the practical heuristic: aggressive
  phase, then repeatedly dissolve the cheapest merged class that blocks
  the greedy elimination (the class is *split back into primitive
  vertices*, as Park–Moon do), with a final conservative re-coalescing
  pass over the dissolved affinities;
* :func:`decoalesce_minimum` — exact minimum de-coalescing by iterative
  deepening over the set of given-up affinities, for reduction-sized
  instances.
"""

from __future__ import annotations

from itertools import combinations
from typing import Dict, List, Optional, Set, Tuple

from ..graphs.dense import greedy_core
from ..graphs.graph import Vertex
from ..graphs.greedy import is_greedy_k_colorable
from ..graphs.interference import Coalescing, InterferenceGraph
from ..obs import NULL_TRACER, Tracer
from .aggressive import aggressive_coalesce
from .base import CoalescingResult, affinities_by_weight
from .conservative import BruteWitnesses, high_after_merge


def optimistic_coalesce(
    graph: InterferenceGraph,
    k: int,
    recoalesce: bool = True,
    tracer: Tracer = NULL_TRACER,
) -> CoalescingResult:
    """Aggressive coalescing followed by heuristic de-coalescing.

    De-coalescing loop: while the quotient graph is not
    greedy-k-colorable, take the witness subgraph in which every vertex
    has degree ≥ k, pick among its merged classes the one with the
    smallest internal affinity weight, and dissolve it back into
    primitive vertices.  Finally (``recoalesce``), retry each dissolved
    affinity with the brute-force conservative test — Park and Moon's
    refinement that recovers moves the coarse dissolution gave up
    needlessly.

    Everything runs on one copy of the graph's dense twin
    (:meth:`~repro.graphs.graph.Graph.dense`): the quotient is built
    once, each class merged into its first member's slot, so live slots
    come in :meth:`Coalescing.coalesced_graph` vertex order and the
    witness — the k-core left by the dense peel
    (:func:`~repro.graphs.dense.greedy_core`) — lists blockers in the
    same order.  A dissolved class is split in place
    (:meth:`~repro.graphs.dense.DenseGraph.split_group`): its slot is
    detached and each member re-attached with its input row projected
    through the live classes, which gives the rows a rebuild would.
    Re-coalescing uses the witness-keeping brute-force test
    (:class:`~repro.coalescing.conservative.BruteWitnesses`) on that
    quotient, greedy-k-colorable by then, with the degree-≥-k mask built
    once and carried over each accepted merge
    (:func:`~repro.coalescing.conservative.high_after_merge`); its
    verdicts equal the dict test's because greedy success does not
    depend on elimination order.
    """
    aggressive = aggressive_coalesce(graph, tracer=tracer)
    dissolved_pairs: Set[Tuple[Vertex, Vertex]] = set()
    base = graph.dense()
    index = base.index
    affinities = list(graph.affinities())
    quotient = base.copy()
    # each merged class at its first slot; each other member slot's class
    class_at: Dict[int, Set[Vertex]] = {}
    owner: Dict[int, int] = {}
    for group in aggressive.coalescing.classes():
        if len(group) > 1:
            slots = sorted(index[v] for v in group)
            quotient.merge_group(slots)
            class_at[slots[0]] = set(group)
            owner.update(dict.fromkeys(slots[1:], slots[0]))

    def internal_weight(group: Set[Vertex]) -> float:
        return sum(w for u, v, w in affinities if u in group and v in group)

    def projected(row: int) -> int:
        """An input row over the quotient's live slots."""
        live = quotient.alive
        folded = row & ~live
        row &= live
        while folded:
            low = folded & -folded
            row |= 1 << owner[low.bit_length() - 1]
            folded ^= low
        return row

    with tracer.span("optimistic/decoalesce"):
        while True:
            tracer.count("optimistic.witness_checks")
            core = greedy_core(quotient, k)
            if not core:
                break
            blockers = []
            while core:
                low = core & -core
                group = class_at.get(low.bit_length() - 1)
                if group is not None:
                    blockers.append(group)
                core ^= low
            if not blockers:
                # every witness vertex is primitive: the original graph is
                # itself not greedy-k-colorable
                raise ValueError(
                    "input graph is not greedy-k-colorable; optimistic "
                    "coalescing cannot fix spills"
                )
            cheapest = min(blockers, key=internal_weight)
            slots = sorted(index[v] for v in cheapest)
            del class_at[slots[0]]
            for s in slots[1:]:
                del owner[s]
            # members are pairwise non-adjacent: no row names another
            quotient.split_group(
                slots, [projected(base.adj[s]) for s in slots])
            dissolved = [
                (u, v) for u, v, _ in affinities if u in cheapest and v in cheapest
            ]
            dissolved_pairs.update(dissolved)
            tracer.count("optimistic.dissolved_classes")
            tracer.count("optimistic.dissolved_pairs", len(dissolved))
            tracer.event(
                "optimistic.dissolve",
                size=len(cheapest),
                weight=internal_weight(cheapest),
            )

    coalescing = Coalescing(graph)
    for group in class_at.values():
        members = sorted(group, key=str)
        for other in members[1:]:
            coalescing.union(members[0], other)
    if recoalesce and dissolved_pairs:
        with tracer.span("optimistic/recoalesce"):
            # the quotient is greedy-k-colorable now; it keeps each class
            # at its first slot, the lowest bit of its member mask
            rep, groups = coalescing.rep, coalescing.groups

            def first(v: Vertex) -> int:
                r = rep[index[v]]
                members = groups.get(r, 1 << r)
                return (members & -members).bit_length() - 1

            brute = BruteWitnesses(quotient, k, True, tracer)
            # the degree-≥-k mask, carried over each accepted merge
            high = quotient.high_degree_mask(k)
            for pos, (u, v, _) in enumerate(affinities_by_weight(graph)):
                if (u, v) not in dissolved_pairs and (v, u) not in dissolved_pairs:
                    continue
                su, sv = first(u), first(v)
                if su == sv:
                    continue
                tracer.count("queries.interference")
                if quotient.has_edge(su, sv):
                    continue
                tracer.count("optimistic.recoalesce_attempted")
                if brute.test(pos, su, sv, high):
                    if sv < su:
                        su, sv = sv, su
                    common = quotient.merge_in_place(su, sv)
                    brute.merged(su, sv)
                    high = high_after_merge(quotient, high, common, su, sv, k)
                    coalescing.union(u, v)
                    tracer.count("optimistic.recoalesced")

    return CoalescingResult(
        graph=graph, coalescing=coalescing, strategy="optimistic")


def decoalesce_minimum(
    graph: InterferenceGraph,
    k: int,
    full: Optional[Coalescing] = None,
    max_give_up: Optional[int] = None,
) -> Optional[List[Tuple[Vertex, Vertex]]]:
    """Exact minimum de-coalescing (the Theorem 6 optimization).

    Given a coalescing ``full`` in which every affinity is coalesced
    (default: build it, failing if the affinities cannot all be
    coalesced), find a minimum-cardinality set of affinities to give up
    so that the de-coalesced quotient is greedy-k-colorable.

    Iterative deepening over the give-up set size tries every set of
    each size before the next, so the first size that succeeds is the
    optimum residual move count.  De-coalescing is not monotone: giving
    up everything can fail where a merge succeeds (the 4-cycle a–w–b–x
    at k = 2 is not greedy-2-colorable, merging a and b leaves a tree),
    so the input graph's own colorability decides nothing and the
    search always runs.  Exponential: reduction-sized instances only.
    Returns the affinity pairs to give up, or None if no give-up set
    within the deepening limit ``max_give_up`` works.
    """
    affinities = [(u, v) for u, v, _ in affinities_by_weight(graph)]
    if full is None:
        full = Coalescing(graph)
        for u, v in affinities:
            if not full.can_union(u, v):
                raise ValueError(
                    "not all affinities can be coalesced aggressively"
                )
            full.union(u, v)
    limit = len(affinities) if max_give_up is None else max_give_up

    def quotient_ok(give_up: Set[int]) -> bool:
        c = Coalescing(graph)
        for i, (u, v) in enumerate(affinities):
            if i not in give_up and c.can_union(u, v):
                c.union(u, v)
        return is_greedy_k_colorable(c.coalesced_graph(), k)

    for size in range(0, limit + 1):
        for subset in combinations(range(len(affinities)), size):
            if quotient_ok(set(subset)):
                return [affinities[i] for i in subset]
    return None
