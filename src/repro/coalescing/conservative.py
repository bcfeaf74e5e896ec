"""Conservative coalescing (Section 4).

Coalesce as many moves as possible while *keeping the graph colourable*.
The decision problem is NP-complete even for k = 3 (Theorem 3), so
practice uses incremental local tests applied one affinity at a time:

* **Briggs**: merge u and v if the merged vertex has fewer than k
  neighbours of degree ≥ k;
* **George**: merge u and v if every neighbour of u of degree ≥ k is
  already a neighbour of v (asymmetric — the paper notes it may be
  applied in both directions when spilling is done beforehand);
* **George's extension**: also forgive a neighbour of u that is
  itself removable, with fewer than k significant neighbours once u
  and v are merged;
* **brute force**: merge, then re-check greedy-k-colorability of the
  whole graph in linear time (the paper's suggestion at the end of
  Section 4) — strictly more powerful than both local rules, as the
  Figure 3 permutation gadget demonstrates.

All tests preserve greedy-k-colorability, hence k-colorability.  Each
is implemented once, on bitsets, in :data:`repro.graphs.dense.DENSE_TESTS`.
:func:`conservative_coalesce` iterates a worklist to a fixed point:
coalescing one move can enable another (and with the brute-force test,
even a previously-refused one).
"""

from __future__ import annotations

from typing import Callable

from ..graphs.dense import DENSE_TESTS, DenseGraph, greedy_core
from ..graphs.interference import Coalescing, InterferenceGraph
from ..obs import NULL_TRACER, Tracer
from .base import CoalescingResult, affinities_by_weight


def _coalesce_rounds(
    graph: InterferenceGraph,
    dense: DenseGraph,
    k: int,
    test_fn: Callable[..., bool],
    coalescing: Coalescing,
    tracer: Tracer,
) -> None:
    """The fixed-point worklist on ``dense``, the graph's bitset twin,
    merged in place.

    The degree-≥-k mask ``high`` is maintained incrementally from the
    common-neighbour mask that :meth:`DenseGraph.merge_in_place`
    returns — the only vertices whose degree changed.
    """
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

    The rounds run on a copy of the graph's dense twin
    (:meth:`~repro.graphs.graph.Graph.dense`) with the bitset tests of
    :data:`repro.graphs.dense.DENSE_TESTS`; the input check peels the
    twin itself, which keeps the peel for every later check at ``k``.

    ``tracer`` records rounds, merge attempts/accepts/rejections, and
    interference queries (see docs/OBSERVABILITY.md).
    """
    try:
        test_fn = DENSE_TESTS[test]
    except KeyError:
        raise ValueError(
            f"unknown test {test!r}; choose from {sorted(DENSE_TESTS)}"
        )
    if check_input and greedy_core(graph.dense(), k):
        raise ValueError("input graph is not greedy-k-colorable")
    dense = graph.dense().copy()

    coalescing = Coalescing(graph)
    tracer.count("affinities.total", graph.num_affinities())
    with tracer.span(f"conservative-{test}"):
        _coalesce_rounds(graph, dense, k, test_fn, coalescing, tracer)
    return CoalescingResult(
        graph=graph, coalescing=coalescing, strategy=test)
