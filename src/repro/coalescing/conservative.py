"""Conservative coalescing (Section 4).

Coalesce as many moves as possible while *keeping the graph colourable*.
The decision problem is NP-complete even for k = 3 (Theorem 3), so
practice uses incremental local tests applied one affinity at a time:

* **Briggs**: merge u and v if the merged vertex has fewer than k
  neighbours of degree ≥ k;
* **George**: merge u and v if every neighbour of u of degree ≥ k is
  already a neighbour of v (asymmetric — the paper notes it may be
  applied in both directions when spilling is done beforehand);
* **brute force**: merge, then re-check greedy-k-colorability of the
  whole graph in linear time (the paper's suggestion at the end of
  Section 4) — strictly more powerful than both local rules, as the
  Figure 3 permutation gadget demonstrates.

All tests preserve greedy-k-colorability, hence k-colorability.
:func:`conservative_coalesce` iterates a worklist to a fixed point:
coalescing one move can enable another (and with the brute-force test,
even a previously-refused one).
"""

from __future__ import annotations

from typing import Callable

from ..graphs import dense as _dense
from ..graphs.dense import DenseGraph
from ..graphs.graph import Vertex
from ..graphs.interference import Coalescing, InterferenceGraph
from ..graphs.greedy import is_greedy_k_colorable
from ..analysis.debug import maybe_check_coalescing_result
from ..obs import EDGES_SCANNED, NULL_TRACER, Tracer
from .base import CoalescingResult, affinities_by_weight


def briggs_test(
    graph: InterferenceGraph,
    u: Vertex,
    v: Vertex,
    k: int,
    tracer: Tracer = NULL_TRACER,
) -> bool:
    """Briggs' conservative test on the *current* graph.

    The merged vertex's neighbourhood is N(u) ∪ N(v) \\ {u, v}; a common
    neighbour's degree drops by one in the merged graph.  Safe when
    fewer than k of those neighbours have (merged-graph) degree ≥ k.
    """
    if graph.has_edge(u, v):
        return False
    nu, nv = graph.neighbors_view(u), graph.neighbors_view(v)
    if tracer.enabled:
        # cost of building the union, independent of early exits
        tracer.count(EDGES_SCANNED, len(nu) + len(nv))
    significant = 0
    for w in (nu | nv) - {u, v}:
        degree = graph.degree(w)
        if w in nu and w in nv:
            degree -= 1  # its two edges to u and v become one
        if degree >= k:
            significant += 1
            if significant >= k:
                return False
    return True


def george_test(
    graph: InterferenceGraph,
    u: Vertex,
    v: Vertex,
    k: int,
    tracer: Tracer = NULL_TRACER,
) -> bool:
    """George's test: merge ``u`` into ``v``.

    Safe when every neighbour of ``u`` either has degree < k or is
    already a neighbour of ``v``.  Asymmetric: callers may also try the
    swapped direction.
    """
    if graph.has_edge(u, v):
        return False
    nv = graph.neighbors_view(v)
    if tracer.enabled:
        tracer.count(EDGES_SCANNED, graph.degree(u))
    return all(
        graph.degree(t) < k or t in nv
        for t in graph.neighbors_view(u)
        if t != v
    )


def george_test_both(
    graph: InterferenceGraph,
    u: Vertex,
    v: Vertex,
    k: int,
    tracer: Tracer = NULL_TRACER,
) -> bool:
    """George's test tried in both directions (the paper's suggestion
    when spilling has been done first, so any two vertices qualify)."""
    return george_test(graph, u, v, k, tracer=tracer) or george_test(
        graph, v, u, k, tracer=tracer
    )


def george_extended_test(
    graph: InterferenceGraph,
    u: Vertex,
    v: Vertex,
    k: int,
    tracer: Tracer = NULL_TRACER,
) -> bool:
    """The extension of George's rule mentioned in Section 4.

    A neighbour ``t`` of ``u`` need not be a neighbour of ``v`` when
    ``t`` itself has at most (k − 1) neighbours of degree ≥ k — such a
    ``t`` is always removable by the greedy scheme once its low-degree
    neighbours are gone (the Briggs argument applied to ``t``), so it
    cannot block the merged vertex.  Costlier to evaluate (degree
    inspection of the neighbours' neighbours), as the paper notes.
    """
    if graph.has_edge(u, v):
        return False
    nv = graph.neighbors_view(v)
    # materialize the potential blockers first: the high-degree
    # neighbours of u unknown to v.  The blocker *set* is deterministic
    # (unlike the set-iteration order), so counting its scan costs
    # upfront keeps the work counters exact across runs.
    blockers = [
        t
        for t in graph.neighbors_view(u)
        if t != v and t not in nv and graph.degree(t) >= k
    ]
    if tracer.enabled:
        tracer.count(EDGES_SCANNED, graph.degree(u))
        for t in blockers:
            tracer.count(EDGES_SCANNED, graph.degree(t))

    def removable(t: Vertex) -> bool:
        significant = 0
        for s in graph.neighbors_view(t):
            if graph.degree(s) >= k:
                significant += 1
                if significant >= k:
                    return False
        return True

    return all(removable(t) for t in blockers)


def george_extended_test_both(
    graph: InterferenceGraph,
    u: Vertex,
    v: Vertex,
    k: int,
    tracer: Tracer = NULL_TRACER,
) -> bool:
    """The extended George test in both directions."""
    return george_extended_test(
        graph, u, v, k, tracer=tracer
    ) or george_extended_test(graph, v, u, k, tracer=tracer)


def briggs_george_test(
    graph: InterferenceGraph,
    u: Vertex,
    v: Vertex,
    k: int,
    tracer: Tracer = NULL_TRACER,
) -> bool:
    """The combined rule used by iterated register coalescing."""
    return briggs_test(graph, u, v, k, tracer=tracer) or george_test_both(
        graph, u, v, k, tracer=tracer
    )


def brute_force_test(
    graph: InterferenceGraph,
    u: Vertex,
    v: Vertex,
    k: int,
    tracer: Tracer = NULL_TRACER,
) -> bool:
    """Merge ``u`` and ``v`` on a copy and re-check
    greedy-k-colorability of the whole graph (linear time)."""
    if graph.has_edge(u, v):
        return False
    if tracer.enabled:
        # cost of cloning the adjacency structure for the trial merge
        tracer.count(EDGES_SCANNED, 2 * graph.num_edges())
    merged = graph.merged(u, v)
    return is_greedy_k_colorable(merged, k, tracer=tracer)


ConservativeTest = Callable[..., bool]

TESTS: dict = {
    "briggs": briggs_test,
    "george": george_test_both,
    "george_extended": george_extended_test_both,
    "briggs_george": briggs_george_test,
    "brute": brute_force_test,
}


def _coalesce_rounds(
    graph: InterferenceGraph,
    k: int,
    test_fn: ConservativeTest,
    coalescing: Coalescing,
    tracer: Tracer,
) -> None:
    """The fixed-point worklist on the dense bitset work graph.

    Each dense test is verdict-equal to its dict twin in :data:`TESTS`.
    The degree-≥-k mask ``high`` is maintained incrementally from the
    common-neighbour mask that :meth:`DenseGraph.merge_in_place`
    returns — the only vertices whose degree changed.
    """
    dense = DenseGraph.from_graph(graph)
    deg = dense.deg
    # map each union-find representative to its slot in `dense`
    rep_idx = {v: dense.index[v] for v in graph.vertices}
    high = dense.high_degree_mask(k)
    progress = True
    while progress:
        progress = False
        tracer.count("conservative.rounds")
        for u, v, w in affinities_by_weight(graph):
            i = rep_idx[coalescing.find(u)]
            j = rep_idx[coalescing.find(v)]
            if i == j:
                continue
            tracer.count("queries.interference")
            if dense.has_edge(i, j):
                tracer.count("moves.constrained")
                continue
            tracer.count("moves.attempted")
            if test_fn(dense, i, j, k, high=high, tracer=tracer):
                common = dense.merge_in_place(i, j)
                # common neighbours lost one degree; i changed; j died
                drop = common & high
                while drop:
                    low = drop & -drop
                    if deg[low.bit_length() - 1] < k:
                        high &= ~low
                    drop ^= low
                high &= ~(1 << j)
                if deg[i] >= k:
                    high |= 1 << i
                else:
                    high &= ~(1 << i)
                coalescing.union(u, v)
                rep_idx[coalescing.find(u)] = i
                progress = True
                tracer.count("moves.coalesced")
            else:
                tracer.count("moves.rejected")


def conservative_coalesce(
    graph: InterferenceGraph,
    k: int,
    test: str = "briggs_george",
    check_input: bool = True,
    tracer: Tracer = NULL_TRACER,
) -> CoalescingResult:
    """Iterated conservative coalescing with the chosen test.

    Processes affinities by decreasing weight; after any successful
    merge, previously-refused affinities are retried (a merge can lower
    degrees through common neighbours, or — with the brute-force test —
    change the global answer).  Stops at a fixed point.

    If ``check_input`` and the input graph is not greedy-k-colorable,
    raises ``ValueError`` — conservative coalescing is only meaningful
    on a colourable graph (the paper's setting: after spilling).

    The rounds run on a :class:`~repro.graphs.dense.DenseGraph` work
    graph with the bitset tests of :data:`repro.graphs.dense.DENSE_TESTS`.

    ``tracer`` records rounds, merge attempts/accepts/rejections, and
    interference queries (see docs/OBSERVABILITY.md).
    """
    try:
        test_fn = _dense.DENSE_TESTS[test]
    except KeyError:
        raise ValueError(
            f"unknown test {test!r}; choose from {sorted(_dense.DENSE_TESTS)}"
        )
    if check_input and not is_greedy_k_colorable(graph, k):
        raise ValueError("input graph is not greedy-k-colorable")

    coalescing = Coalescing(graph)
    tracer.count("affinities.total", graph.num_affinities())
    with tracer.span(f"conservative-{test}"):
        _coalesce_rounds(graph, k, test_fn, coalescing, tracer)
    # final ledger from the partition itself, so affinities coalesced
    # transitively (endpoints unioned through other moves) are counted
    coalesced = [
        (u, v, w)
        for u, v, w in graph.affinities()
        if coalescing.same_class(u, v)
    ]
    given_up = [
        (u, v, w)
        for u, v, w in graph.affinities()
        if not coalescing.same_class(u, v)
    ]
    result = CoalescingResult(
        graph=graph,
        coalescing=coalescing,
        strategy=f"conservative-{test}",
        coalesced=coalesced,
        given_up=given_up,
    )
    maybe_check_coalescing_result(result, k=k)
    return result
