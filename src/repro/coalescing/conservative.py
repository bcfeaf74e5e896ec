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
* **brute force**: merge, then ask whether the merged graph is still
  greedy-k-colorable (the paper's suggestion at the end of Section 4)
  — strictly more powerful than both local rules, as the Figure 3
  permutation gadget demonstrates.  The answer is the merged graph's
  k-core, empty iff it is; :class:`BruteWitnesses` keeps each refused
  affinity's core and answers its retries from it until a merge folds
  two of its members, so a worklist peels the whole graph only for a
  pair that no kept core or local rule decides.

All tests preserve greedy-k-colorability, hence k-colorability.  Each
is implemented once, on bitsets, in :data:`repro.graphs.dense.DENSE_TESTS`.
:func:`conservative_coalesce` iterates a worklist to a fixed point:
coalescing one move can enable another (and with the brute-force test,
even a previously-refused one).
"""

from __future__ import annotations

from typing import Dict, Optional

from ..graphs.dense import (
    DENSE_TESTS,
    DenseGraph,
    briggs_test,
    george_test_both,
    greedy_core,
    merged_core,
)
from ..graphs.interference import Coalescing, InterferenceGraph
from ..obs import NULL_TRACER, Tracer
from .base import CoalescingResult, affinities_by_weight


class BruteWitnesses:
    """The brute-force test over a merging worklist, with kept k-cores.

    It runs on one dense graph that changes only by merges, and keeps
    each refusal's k-core as its witness.  A core is a set of
    merged-graph vertices, each with k neighbours inside it, so it
    refuses its pair for as long as it survives.  A later merge maps it
    into the new graph one member to one vertex, and keeps every edge,
    unless the merge folds two of its members, where a common
    neighbour can lose its k-th neighbour: only then is the witness
    dropped.  The refused pair's own two classes are one member, so a
    kept core holds both their slots.  (A core that misses the pair
    exists only on a graph that is not greedy-k-colorable; it is not
    kept.)

    A pair with no witness is first peeled within the union of the
    kept cores: a core of any subgraph lies inside the whole graph's,
    so a non-empty one refuses exactly, and the whole graph is peeled
    only when it comes out empty.  Before any peel, Briggs' or George's
    rule (either direction) accepts, but only while the graph is known
    to be greedy-k-colorable, which their soundness needs.

    The caller keys each pair (a stable affinity position), merges
    ``j`` into ``i`` on accepting, and reports every merge through
    :meth:`merged`.  Witnesses are kept in refusal order, never hash
    order.
    """

    __slots__ = ("dense", "k", "colorable", "tracer", "_kept")

    def __init__(
        self,
        dense: DenseGraph,
        k: int,
        colorable: bool,
        tracer: Tracer = NULL_TRACER,
    ) -> None:
        self.dense = dense
        self.k = k
        #: True once the graph is known to be greedy-k-colorable
        self.colorable = colorable
        self.tracer = tracer
        # key -> the core that refused its pair, over the graph's slots
        self._kept: Dict[int, int] = {}

    def test(self, key: int, i: int, j: int, high: Optional[int] = None) -> bool:
        """The brute-force verdict on merging ``j`` into ``i``, the
        pair of ``key``; ``high`` is the degree-≥-k mask, if maintained."""
        if key in self._kept:
            self.tracer.count("brute.witness_refusals")
            return False
        dense, k, tracer = self.dense, self.k, self.tracer
        if self.colorable:
            if high is None:
                high = dense.high_degree_mask(k)
            if briggs_test(dense, i, j, k, high=high, tracer=tracer) \
                    or george_test_both(dense, i, j, k, high=high, tracer=tracer):
                tracer.count("brute.local_accepts")
                return True
        rest = dense.alive & ~(1 << j)
        region = 1 << i
        for core in self._kept.values():
            region |= core
        region &= rest
        core = 0
        if self._kept and region != rest:
            tracer.count("brute.region_peels")
            core = merged_core(dense, i, j, k, within=region, tracer=tracer)
        if not core:
            tracer.count("brute.peels")
            core = merged_core(dense, i, j, k, tracer=tracer)
            if not core:
                self.colorable = True
                return True
        if core >> i & 1:
            self._kept[key] = core | 1 << j
        return False

    def merged(self, a: int, b: int) -> None:
        """Carry the witnesses over the merge of slot ``b`` into ``a``."""
        ab, bit_b = 1 << a | 1 << b, 1 << b
        kept: Dict[int, int] = {}
        for key, core in self._kept.items():
            if core & ab == bit_b:
                core ^= ab
            elif core & ab == ab:
                continue  # two members fold
            kept[key] = core
        self._kept = kept


def high_after_merge(
    dense: DenseGraph, high: int, common: int, i: int, j: int, k: int
) -> int:
    """The degree-≥-k mask after a merge, carried over from before it.

    ``high`` is ``dense``'s mask before it merged ``j`` into ``i``, the
    merge that returned ``common`` (:meth:`DenseGraph.merge_in_place`):
    the common neighbours lost one degree, ``i`` changed and ``j`` died,
    and no other degree moved.
    """
    deg = dense.deg
    drop = common & high
    while drop:
        low = drop & -drop
        if deg[low.bit_length() - 1] < k:
            high &= ~low
        drop ^= low
    high &= ~(1 << j)
    if deg[i] >= k:
        return high | 1 << i
    return high & ~(1 << i)


def _coalesce_rounds(
    graph: InterferenceGraph,
    dense: DenseGraph,
    k: int,
    test: str,
    colorable: bool,
    coalescing: Coalescing,
    tracer: Tracer,
) -> None:
    """The fixed-point worklist on ``dense``, a copy of the graph's
    bitset twin, merged in place.

    The degree-≥-k mask ``high`` is maintained incrementally from the
    common-neighbour mask that :meth:`DenseGraph.merge_in_place`
    returns — the only vertices whose degree changed
    (:func:`high_after_merge`).  The brute-force test keys its witnesses
    by affinity position.
    """
    test_fn = DENSE_TESTS[test]
    brute = (
        BruteWitnesses(dense, k, colorable, tracer) if test == "brute" else None
    )
    index, rep = dense.index, coalescing.rep
    # the slot of `dense` each class lives in, by its representative
    # slot: a merge keeps the first endpoint's slot, which need not win
    # the union, and the extended George test walks blockers in slot order
    at = list(range(dense.n))
    high = dense.high_degree_mask(k)
    affinities = affinities_by_weight(graph)
    progress = True
    while progress:
        progress = False
        tracer.count("conservative.rounds")
        for pos, (u, v, _) in enumerate(affinities):
            ru, rv = rep[index[u]], rep[index[v]]
            if ru == rv:
                continue
            i, j = at[ru], at[rv]
            tracer.count("queries.interference")
            if dense.has_edge(i, j):
                tracer.count("moves.constrained")
                continue
            tracer.count("moves.attempted")
            if (
                brute.test(pos, i, j, high) if brute is not None
                else test_fn(dense, i, j, k, high=high, tracer=tracer)
            ):
                common = dense.merge_in_place(i, j)
                if brute is not None:
                    brute.merged(i, j)
                high = high_after_merge(dense, high, common, i, j, k)
                coalescing.union_slots(ru, rv)
                at[rep[ru]] = i
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
    :data:`repro.graphs.dense.DENSE_TESTS`, ``brute`` through
    :class:`BruteWitnesses`; the input check peels the twin itself,
    which keeps the peel for every later check at ``k``.

    ``tracer`` records rounds, merge attempts/accepts/rejections, and
    interference queries (see docs/OBSERVABILITY.md).
    """
    if test not in DENSE_TESTS:
        raise ValueError(
            f"unknown test {test!r}; choose from {sorted(DENSE_TESTS)}"
        )
    colorable = False
    if check_input or test == "brute":
        # the twin keeps its peel: the input check and the brute test's
        # accept path share it
        colorable = not greedy_core(graph.dense(), k)
        if check_input and not colorable:
            raise ValueError("input graph is not greedy-k-colorable")
    dense = graph.dense().copy()

    coalescing = Coalescing(graph)
    tracer.count("affinities.total", graph.num_affinities())
    with tracer.span(f"conservative-{test}"):
        _coalesce_rounds(graph, dense, k, test, colorable, coalescing, tracer)
    return CoalescingResult(
        graph=graph, coalescing=coalescing, strategy=test)
