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

from ..graphs.dense import brute_force_test, greedy_core
from ..graphs.graph import Vertex
from ..graphs.greedy import is_greedy_k_colorable
from ..graphs.interference import Coalescing, InterferenceGraph
from ..obs import NULL_TRACER, Tracer
from .aggressive import aggressive_coalesce
from .base import CoalescingResult, affinities_by_weight


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

    Everything runs on the graph's dense twin
    (:meth:`~repro.graphs.graph.Graph.dense`): each round copies its
    rows and merges every class into its first member's
    slot, so live slots come in :meth:`Coalescing.coalesced_graph`
    vertex order and the witness — the k-core left by the dense
    peel (:func:`~repro.graphs.dense.greedy_core`) — lists blockers in
    the same order.  Re-coalescing
    uses the dense brute-force test, whose verdicts equal the dict
    test's because greedy success does not depend on elimination order.
    """
    aggressive = aggressive_coalesce(graph, tracer=tracer)
    classes: List[Set[Vertex]] = [set(c) for c in aggressive.coalescing.classes()]
    dissolved_pairs: Set[Tuple[Vertex, Vertex]] = set()
    base = graph.dense()
    index = base.index
    affinities = list(graph.affinities())

    def internal_weight(group: Set[Vertex]) -> float:
        return sum(w for u, v, w in affinities if u in group and v in group)

    with tracer.span("optimistic/decoalesce"):
        while True:
            tracer.count("optimistic.witness_checks")
            quotient = base.copy()
            class_at: Dict[int, Set[Vertex]] = {}
            for group in classes:
                if len(group) > 1:
                    slots = sorted(index[v] for v in group)
                    quotient.merge_group(slots)
                    class_at[slots[0]] = group
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
            classes.remove(cheapest)
            for v in cheapest:
                classes.append({v})
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
    for group in classes:
        members = sorted(group, key=str)
        for other in members[1:]:
            coalescing.union(members[0], other)
    if recoalesce and dissolved_pairs:
        with tracer.span("optimistic/recoalesce"):
            # `quotient` is the last round's, the greedy-k-colorable one;
            # map each class representative to its slot
            slot = {coalescing.find(v): i for v, i in index.items()
                    if quotient.alive >> i & 1}
            for u, v, _ in affinities_by_weight(graph):
                if (u, v) not in dissolved_pairs and (v, u) not in dissolved_pairs:
                    continue
                su, sv = slot[coalescing.find(u)], slot[coalescing.find(v)]
                if su == sv:
                    continue
                tracer.count("queries.interference")
                if quotient.has_edge(su, sv):
                    continue
                tracer.count("optimistic.recoalesce_attempted")
                if brute_force_test(quotient, su, sv, k):
                    quotient.merge_in_place(su, sv)
                    coalescing.union(u, v)
                    slot[coalescing.find(u)] = su
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

    De-coalescing is monotone — splitting a class of a
    greedy-k-colorable quotient distributes the merged vertex's edges
    over non-adjacent parts, which keeps the elimination going — so
    iterative deepening over the give-up set size is exact: the first
    size that succeeds equals the optimum residual move count.  Exponential: reduction-sized instances only.  Returns the
    affinity pairs to give up, or None if even full de-coalescing (the
    original graph) is not greedy-k-colorable or the deepening limit
    ``max_give_up`` is exhausted.
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
    if not is_greedy_k_colorable(graph, k):
        return None
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
