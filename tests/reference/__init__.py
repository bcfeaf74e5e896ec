"""Dict-of-set reference kernels: the test oracles for ``repro``.

Plain set-algebra versions of the kernels ``src/repro`` runs on bitsets.
The tests check that the bitset kernels give identical results and do
strictly less traced work (counted as in :mod:`repro.obs.names`).
:func:`maximal_cliques_chordal` (the Blair–Peyton containment test) and
:func:`clique_tree` (the Kruskal maximum-weight spanning tree on those
cliques) are what the O(V+E) clique-tree walk of
:mod:`repro.graphs.chordal` is checked against,
:func:`verify_clique_tree` checks a tree's induced-subtree property, and
:func:`coalesced_graph` (one ``add_edge`` per edge) is the oracle for
the row-wise quotient build.  :func:`optimistic_coalesce` is the
de-coalescing loop on dict quotients that the single-DenseGraph
:func:`repro.coalescing.optimistic.optimistic_coalesce` must match
partition for partition, :func:`scan_second_chance` (resident
lists, two-pointer range tests) the oracle for the occupancy-mask
second-chance scan, and :func:`scan_classic` (an active list rebuilt
and the free registers re-sorted at every interval) the oracle for the
two-heap classic scan.  :func:`biased_greedy_coloring` (forbidden
colours as a set per vertex) is the oracle for the colour-class masks
of :mod:`repro.coalescing.biased`, and :func:`clique_tree_walk` (a
binary search of the MCS prefixes per vertex) for the one-sweep
:func:`repro.graphs.chordal.dense_clique_tree`.  :func:`check_allocation_validity` and
:func:`check_interval_allocation` are the per-edge and per-pair loops
the row-mask allocation certificates must match diagnostic for
diagnostic, and :func:`maxlive` the set-based pressure walk
(:func:`pressure_maxlive` the same walk without memory slots).
:data:`TESTS` holds the dict conservative tests that
:data:`repro.graphs.dense.DENSE_TESTS` must match verdict for verdict,
and :func:`chaitin_color_round` the Chaitin round on a copied dict
graph that :mod:`repro.allocator.chaitin` must match allocation for
allocation.
"""

from __future__ import annotations

import heapq
from itertools import combinations
from typing import Any, Callable, Dict, FrozenSet, Iterator, List, Optional, Sequence, Set, Tuple

from repro.coalescing.aggressive import aggressive_coalesce
from repro.coalescing.base import affinities_by_weight
from repro.graphs.chordal import (
    CliqueTree,
    DenseCliqueTree,
    perfect_elimination_ordering,
)
from repro.graphs.dense import DenseGraph, mcs_order
from repro.graphs.graph import Graph, Vertex
from repro.graphs.greedy import dense_subgraph_witness, is_greedy_k_colorable
from repro.graphs import greedy as repro_greedy
from repro.graphs.interference import Coalescing, InterferenceGraph
from repro.allocator.spill import is_memory_slot, is_spill_temp
from repro.analysis.diagnostics import Diagnostic
from repro.analysis.registry import AnalysisContext
from repro.intervals.model import (
    IntervalSet,
    LiveInterval,
    number_points,
    ranges_intersect,
)
from repro.ir.cfg import Function
from repro.ir.instructions import Var
from repro.ir.liveness import LivenessInfo
from repro.obs import EDGES_SCANNED, NULL_TRACER, RANGES_BUILT, Tracer


def maximum_cardinality_search(
    graph: Graph, tracer: Tracer = NULL_TRACER
) -> List[Vertex]:
    """MCS with a lazy heap, O((V+E) log V); ties go to insertion order."""
    counting = tracer.enabled
    weight: Dict[Vertex, int] = {v: 0 for v in graph.vertices}
    # heap of (-weight, tiebreak, vertex); lazy deletion via weight check
    heap: List[Tuple[int, int, Vertex]] = []
    order_index: Dict[Vertex, int] = {}
    for i, v in enumerate(graph.vertices):
        heapq.heappush(heap, (0, i, v))
        order_index[v] = i
    visited: Set[Vertex] = set()
    order: List[Vertex] = []
    while heap:
        neg_w, _, v = heapq.heappop(heap)
        if v in visited or -neg_w != weight[v]:
            continue
        visited.add(v)
        order.append(v)
        if counting:
            tracer.count(EDGES_SCANNED, graph.degree(v))
        for u in graph.neighbors_view(v):
            if u not in visited:
                weight[u] += 1
                heapq.heappush(heap, (-weight[u], order_index[u], u))
    return order


def greedy_coloring(
    graph: Graph,
    order: Optional[Sequence[Vertex]] = None,
    tracer: Tracer = NULL_TRACER,
) -> Dict[Vertex, int]:
    """First-fit colouring along ``order`` (default: insertion order)."""
    counting = tracer.enabled
    if order is None:
        order = list(graph.vertices)
    coloring: Dict[Vertex, int] = {}
    for v in order:
        if counting:
            tracer.count(EDGES_SCANNED, graph.degree(v))
        used = {coloring[u] for u in graph.neighbors_view(v) if u in coloring}
        c = 0
        while c in used:
            c += 1
        coloring[v] = c
    return coloring


def greedy_elimination_order(
    graph: Graph, k: int, tracer: Tracer = NULL_TRACER
) -> Tuple[List[Vertex], bool]:
    """Chaitin's elimination scheme: ``(order, success)``, O(V+E)."""
    if k < 0:
        raise ValueError(f"k must be non-negative, got {k}")
    counting = tracer.enabled
    degree: Dict[Vertex, int] = {v: graph.degree(v) for v in graph.vertices}
    removed: Dict[Vertex, bool] = {v: False for v in graph.vertices}
    worklist: List[Vertex] = [v for v, d in degree.items() if d < k]
    order: List[Vertex] = []
    while worklist:
        v = worklist.pop()
        if removed[v] or degree[v] >= k:
            continue
        removed[v] = True
        order.append(v)
        if counting:
            tracer.count(EDGES_SCANNED, graph.degree(v))
        for u in graph.neighbors_view(v):
            if not removed[u]:
                degree[u] -= 1
                if degree[u] == k - 1:
                    worklist.append(u)
    return order, len(order) == len(graph)


def maximal_cliques_chordal(graph: Graph) -> List[FrozenSet[Vertex]]:
    """Maximal cliques of a chordal graph: the candidates {v} ∪ later(v)
    along the PEO that no other candidate contains, in PEO order."""
    order = perfect_elimination_ordering(graph)
    if order is None:
        raise ValueError("graph is not chordal")
    position = {v: i for i, v in enumerate(order)}
    later: Dict[Vertex, List[Vertex]] = {
        v: [u for u in graph.neighbors_view(v) if position[u] > position[v]]
        for v in order
    }
    # Blair–Peyton criterion: the candidate {v} ∪ later(v) is NOT maximal
    # iff some earlier u has v = min(later(u)) and |later(u)| - 1 ≥
    # |later(v)| (then later(u) \ {v} ⊆ later(v) forces containment).
    not_maximal: Set[Vertex] = set()
    for u in order:
        if not later[u]:
            continue
        first = min(later[u], key=position.__getitem__)
        if len(later[u]) - 1 >= len(later[first]):
            not_maximal.add(first)
    return [
        frozenset({v} | set(later[v])) for v in order if v not in not_maximal
    ]


def clique_tree(graph: Graph) -> CliqueTree:
    """Kruskal maximum-weight spanning tree on the clique-intersection
    graph, weight |C_i ∩ C_j|; Θ(Σ_v |T_v|²) candidate pairs."""
    cliques = maximal_cliques_chordal(graph)
    by_vertex: Dict[Vertex, List[int]] = {}
    for i, clique in enumerate(cliques):
        for v in clique:
            by_vertex.setdefault(v, []).append(i)
    candidates: Dict[Tuple[int, int], int] = {}
    for indices in by_vertex.values():
        for i, j in combinations(indices, 2):
            key = (i, j) if i < j else (j, i)
            candidates[key] = candidates.get(key, 0) + 1
    parent = list(range(len(cliques)))

    def find(x: int) -> int:
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    edges: List[Tuple[int, int]] = []
    for (i, j), _w in sorted(candidates.items(), key=lambda kv: -kv[1]):
        ri, rj = find(i), find(j)
        if ri != rj:
            parent[ri] = rj
            edges.append((i, j))
    return CliqueTree(cliques=cliques, edges=edges)


def clique_tree_walk(dense: DenseGraph) -> Optional[DenseCliqueTree]:
    """The clique-tree walk with a binary search per vertex: the
    earliest PEO member of ``later(v)`` is the last vertex of the
    shortest MCS prefix holding all of ``later(v)``."""
    order = mcs_order(dense)
    adj = dense.adj
    prefix = [0]
    seen = 0
    for v in order:
        seen |= 1 << v
        prefix.append(seen)
    clique_of = [-1] * dense.n
    walked: List[int] = []
    parents: List[int] = []
    prev_card = 0
    for t, v in enumerate(order):
        lv = adj[v] & prefix[t]
        card = lv.bit_count()
        p = -1
        if lv:
            lo, hi = 1, t  # smallest s with later(v) ⊆ prefix[s]
            while lo < hi:
                mid = (lo + hi) >> 1
                if lv & ~prefix[mid]:
                    lo = mid + 1
                else:
                    hi = mid
            p = order[lo - 1]
            if lv & ~adj[p] & ~(1 << p):
                return None
        if card <= prev_card:
            parents.append(clique_of[p] if p >= 0 else -1)
            walked.append(lv | 1 << v)
        else:
            walked[-1] = lv | 1 << v
        clique_of[v] = len(walked) - 1
        prev_card = card
    last = len(walked) - 1
    walked.reverse()
    edges = tuple((last - s, last - p)
                  for s, p in enumerate(parents) if p >= 0)
    return DenseCliqueTree(order=tuple(order), cliques=tuple(walked),
                           edges=edges)


def verify_clique_tree(graph: Graph, tree: CliqueTree) -> bool:
    """Check the induced-subtree property: for every vertex, the cliques
    containing it form a connected subtree."""
    adj = tree.adjacency()
    for v, nodes in tree.subtree.items():
        if v not in graph:
            return False
        nodes = set(nodes)
        if not nodes:
            return False
        start = next(iter(nodes))
        seen = {start}
        stack = [start]
        while stack:
            x = stack.pop()
            for y in adj[x]:
                if y in nodes and y not in seen:
                    seen.add(y)
                    stack.append(y)
        if seen != nodes:
            return False
    return True


def compute_liveness(
    func: Function, tracer: Tracer = NULL_TRACER
) -> LivenessInfo:
    """Round-robin backward liveness over reachable blocks."""
    counting = tracer.enabled
    reachable = func.reachable()
    use: Dict[str, Set[Var]] = {}
    defs: Dict[str, Set[Var]] = {}
    phi_uses_out: Dict[str, Set[Var]] = {b: set() for b in reachable}
    phi_defs: Dict[str, Set[Var]] = {b: set() for b in reachable}

    for name in reachable:
        block = func.blocks[name]
        upward: Set[Var] = set()
        defined: Set[Var] = set()
        for instr in block.instrs:
            upward.update(v for v in instr.uses if v not in defined)
            defined.update(instr.defs)
        use[name] = upward
        defs[name] = defined
        for phi in block.phis:
            phi_defs[name].add(phi.target)
            for pred, v in phi.args.items():
                if pred in reachable:
                    phi_uses_out[pred].add(v)

    info = LivenessInfo(
        live_in={b: set() for b in reachable},
        live_out={b: set() for b in reachable},
    )
    # iterate in postorder (against the flow) until stable
    order = func.postorder()
    changed = True
    while changed:
        changed = False
        for b in order:
            out: Set[Var] = set(phi_uses_out[b])
            for s in func.successors(b):
                if s not in reachable:
                    continue
                # live-in of successor minus its φ-targets, since those
                # are defined at the join
                out |= info.live_in[s]
                if counting:
                    tracer.count(EDGES_SCANNED, len(info.live_in[s]))
            # φ-targets are defined at the block top, so they are not
            # live-in even when used by the block's own instructions.
            new_in = (use[b] | (out - defs[b])) - phi_defs[b]
            if counting:
                tracer.count(
                    EDGES_SCANNED,
                    len(phi_uses_out[b]) + len(use[b]) + len(out),
                )
            if out != info.live_out[b] or new_in != info.live_in[b]:
                info.live_out[b] = out
                info.live_in[b] = new_in
                changed = True
    return info


def chaitin_interference(
    func: Function,
    move_affinities: bool = True,
    phi_affinities: bool = True,
    weighted: bool = True,
    tracer: Tracer = NULL_TRACER,
) -> InterferenceGraph:
    """Chaitin interference: one ``add_edge`` per def × live-after pair."""
    counting = tracer.enabled
    info = compute_liveness(func, tracer=tracer)
    g = InterferenceGraph(vertices=sorted(func.variables()))
    reachable = func.reachable()
    # insertion-order walk, mirroring repro.ir.interference
    for name in func.reachable_order():
        block = func.blocks[name]
        freq = func.block_frequency(name) if weighted else 1.0
        live: Set[Var] = set(info.live_out[name])
        for instr in reversed(block.instrs):
            # see repro.ir.interference for the move rationale
            for d in instr.defs:
                if counting:
                    tracer.count(EDGES_SCANNED, len(live))
                for other in live:
                    if other != d:
                        g.add_edge(d, other)
            for d1, d2 in combinations(instr.defs, 2):
                if d1 != d2:
                    g.add_edge(d1, d2)
            if instr.is_move and move_affinities:
                dst, src = instr.defs[0], instr.uses[0]
                if dst != src:
                    g.add_affinity(dst, src, freq)
            if counting:
                tracer.count(EDGES_SCANNED, len(instr.defs) + len(instr.uses))
            live -= set(instr.defs)
            live |= set(instr.uses)
        # φs execute in parallel at block top; 'live' is now the live set
        # just after them
        phi_targets = {phi.target for phi in block.phis}
        for t in phi_targets:
            if counting:
                tracer.count(EDGES_SCANNED, len(live))
            for other in live:
                if other != t:
                    g.add_edge(t, other)
        if phi_affinities:
            for phi in block.phis:
                for pred, v in phi.args.items():
                    if pred in reachable and v != phi.target:
                        w = func.block_frequency(pred) if weighted else 1.0
                        g.add_affinity(phi.target, v, w)
    return g


def ranges_from_points(live_points: List[int]) -> Tuple[Tuple[int, int], ...]:
    """Compress an ascending point list into closed disjoint ranges."""
    ranges: List[Tuple[int, int]] = []
    start = prev = live_points[0]
    for point in live_points[1:]:
        if point == prev + 1:
            prev = point
        else:
            ranges.append((start, prev))
            start = prev = point
    ranges.append((start, prev))
    return tuple(ranges)


def build_intervals(
    func: Function, tracer: Tracer = NULL_TRACER
) -> IntervalSet:
    """One append per ``(variable, point)`` over reference liveness
    sets, then :func:`ranges_from_points` (the oracle for the
    transition-built ranges of :func:`repro.intervals.model.build_intervals`)."""
    info = compute_liveness(func, tracer=tracer)
    points = number_points(func)
    counting = tracer.enabled
    live_points: Dict[Var, List[int]] = {}
    for name in points.order:
        block = func.blocks[name]
        occupancy: List[Tuple[int, frozenset]] = []
        live = set(info.live_out[name])
        occupancy.append((points.block_end(name), frozenset(live)))
        if counting:
            tracer.count(EDGES_SCANNED, len(live))
        for i in range(len(block.instrs) - 1, -1, -1):
            instr = block.instrs[i]
            defs = set(instr.defs)
            uses = set(instr.uses)
            occupancy.append(
                (points.instr_point(name, i), frozenset(live | defs))
            )
            live -= defs
            live |= uses
            if counting:
                tracer.count(
                    EDGES_SCANNED, len(live) + 2 * len(defs) + len(uses)
                )
        phi_targets = {phi.target for phi in block.phis}
        occupancy.append(
            (points.block_entry(name), frozenset(live | phi_targets))
        )
        if counting:
            tracer.count(EDGES_SCANNED, len(live) + len(phi_targets))
        for point, occupants in reversed(occupancy):
            if counting and occupants:
                tracer.count(RANGES_BUILT, len(occupants))
            for var in occupants:
                live_points.setdefault(var, []).append(point)
    intervals: Dict[Var, LiveInterval] = {}
    for var in sorted(live_points):
        intervals[var] = LiveInterval(
            var=var, ranges=ranges_from_points(live_points[var])
        )
    return IntervalSet(points=points, intervals=intervals)


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
    ``t`` itself has at most (k − 1) neighbours of degree ≥ k in the
    merged graph — such a ``t`` is always removable by the greedy
    scheme once its low-degree neighbours are gone (the Briggs argument
    applied to ``t``), so it cannot block the merged vertex.  In the
    merged graph the merged vertex, of degree |N(u) ∪ N(v) \\ {u, v}|,
    stands in ``u``'s place among ``t``'s neighbours.  Costlier to
    evaluate (degree inspection of the neighbours' neighbours), as the
    paper notes.
    """
    if graph.has_edge(u, v):
        return False
    nu, nv = graph.neighbors_view(u), graph.neighbors_view(v)
    # materialize the potential blockers first: the high-degree
    # neighbours of u unknown to v.  The blocker *set* is deterministic
    # (unlike the set-iteration order), so counting its scan costs
    # upfront keeps the work counters exact across runs.
    blockers = [
        t for t in nu if t != v and t not in nv and graph.degree(t) >= k
    ]
    if tracer.enabled:
        tracer.count(EDGES_SCANNED, graph.degree(u))
        for t in blockers:
            tracer.count(EDGES_SCANNED, graph.degree(t))
    merged_high = len((nu | nv) - {u, v}) >= k

    def removable(t: Vertex) -> bool:
        significant = int(merged_high)
        for s in graph.neighbors_view(t):
            if s != u and graph.degree(s) >= k:
                significant += 1
        return significant < k

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


#: The dict conservative tests by name, the oracles for
#: :data:`repro.graphs.dense.DENSE_TESTS`.
TESTS: Dict[str, Callable[..., bool]] = {
    "briggs": briggs_test,
    "george": george_test_both,
    "george_extended": george_extended_test_both,
    "briggs_george": briggs_george_test,
    "brute": brute_force_test,
}


def conservative_coalesce(
    graph: InterferenceGraph, k: int, test: str = "briggs_george",
    tracer: Tracer = NULL_TRACER,
) -> Coalescing:
    """The conservative fixed point with the dict ``TESTS``; returns the
    final partition."""
    test_fn = TESTS[test]
    coalescing = Coalescing(graph)
    work = graph.copy()
    # map each union-find representative to its vertex name in `work`
    # (stale entries for superseded representatives are harmless)
    rep_name = {v: v for v in graph.vertices}
    progress = True
    while progress:
        progress = False
        tracer.count("conservative.rounds")
        for u, v, w in affinities_by_weight(graph):
            wu = rep_name[coalescing.find(u)]
            wv = rep_name[coalescing.find(v)]
            if wu == wv:
                continue
            tracer.count("queries.interference")
            if work.has_edge(wu, wv):
                tracer.count("moves.constrained")
                continue
            tracer.count("moves.attempted")
            if test_fn(work, wu, wv, k, tracer=tracer):
                work.merge_in_place(wu, wv)
                coalescing.union(u, v)
                rep_name[coalescing.find(u)] = wu
                progress = True
                tracer.count("moves.coalesced")
            else:
                tracer.count("moves.rejected")
    return coalescing


def coalesced_graph(coalescing: Coalescing) -> InterferenceGraph:
    """The quotient :math:`G_f` built one ``add_edge`` per edge, walking
    :meth:`~repro.graphs.graph.Graph.edges` (the oracle for the
    row-wise :meth:`~repro.graphs.interference.Coalescing.coalesced_graph`)."""
    g = InterferenceGraph()
    rep = coalescing.as_mapping()
    for v in coalescing.graph.vertices:
        g.add_vertex(rep[v])
    for u, v in coalescing.graph.edges():
        ru, rv = rep[u], rep[v]
        if ru == rv:
            raise ValueError(
                f"invalid coalescing: {u!r} and {v!r} interfere "
                "but share a class"
            )
        g.add_edge(ru, rv)
    for u, v, w in coalescing.graph.affinities():
        ru, rv = rep[u], rep[v]
        if ru != rv and not g.has_edge(ru, rv):
            g.add_affinity(ru, rv, w)
    return g


def optimistic_coalesce(
    graph: InterferenceGraph, k: int, recoalesce: bool = True
) -> Coalescing:
    """The de-coalescing loop on dict quotients: rebuild the partition,
    take its quotient and the k-core witness of that quotient, dissolve
    the cheapest blocking class; then re-coalesce dissolved affinities
    with the dict brute-force test on :meth:`Graph.merge_in_place`
    copies.  Returns the final partition."""
    aggressive = aggressive_coalesce(graph)
    classes: List[Set[Vertex]] = [set(c) for c in aggressive.coalescing.classes()]
    dissolved_pairs: List[Tuple[Vertex, Vertex]] = []

    def build(coal_classes: Sequence[Set[Vertex]]) -> Coalescing:
        c = Coalescing(graph)
        for group in coal_classes:
            members = sorted(group, key=str)
            for other in members[1:]:
                c.union(members[0], other)
        return c

    def internal_weight(group: Set[Vertex]) -> float:
        return sum(
            w for u, v, w in graph.affinities() if u in group and v in group
        )

    while True:
        coalescing = build(classes)
        quotient = coalescing.coalesced_graph()
        witness = dense_subgraph_witness(quotient, k)
        if witness is None:
            break
        rep_to_class: Dict[Vertex, Set[Vertex]] = {}
        for group in classes:
            rep_to_class[coalescing.find(next(iter(group)))] = group
        blockers = [
            rep_to_class[r]
            for r in witness
            if r in rep_to_class and len(rep_to_class[r]) > 1
        ]
        if not blockers:
            raise ValueError("input graph is not greedy-k-colorable")
        cheapest = min(blockers, key=internal_weight)
        classes.remove(cheapest)
        for v in cheapest:
            classes.append({v})
        dissolved_pairs.extend(
            (u, v) for u, v, _ in graph.affinities()
            if u in cheapest and v in cheapest
        )

    coalescing = build(classes)
    if recoalesce and dissolved_pairs:
        work = coalescing.coalesced_graph()
        rep_name = {v: coalescing.find(v) for v in graph.vertices}
        for u, v, _ in affinities_by_weight(graph):
            if (u, v) not in dissolved_pairs and (v, u) not in dissolved_pairs:
                continue
            wu, wv = rep_name[coalescing.find(u)], rep_name[coalescing.find(v)]
            if wu == wv or work.has_edge(wu, wv):
                continue
            if TESTS["brute"](work, wu, wv, k):
                work.merge_in_place(wu, wv)
                coalescing.union(u, v)
                rep_name[coalescing.find(u)] = wu
    return coalescing


def scan_second_chance(
    order: List[LiveInterval], k: int, costs: Dict[Var, float]
) -> Tuple[Dict[Var, int], List[Var]]:
    """The hole-aware scan with resident lists and two-pointer
    :func:`~repro.intervals.model.ranges_intersect` tests (the oracle
    for the occupancy-mask scan of :mod:`repro.intervals.linear_scan`)."""
    assignment: Dict[Var, int] = {}
    victims: List[Var] = []
    residents: List[List[LiveInterval]] = [[] for _ in range(k)]

    def meets(a: LiveInterval, b: LiveInterval) -> bool:
        return ranges_intersect(a.ranges, b.ranges)

    for interval in order:
        free = [r for r in range(k)
                if not any(meets(interval, res) for res in residents[r])]
        if free:
            residents[free[0]].append(interval)
            assignment[interval.var] = free[0]
            continue
        best: Optional[Tuple[float, int, List[LiveInterval]]] = None
        for register in range(k):
            conflicts = [res for res in residents[register]
                         if meets(interval, res)]
            if any(is_spill_temp(res.var) for res in conflicts):
                continue
            cost = sum(costs.get(res.var, 1.0) for res in conflicts)
            if best is None or cost < best[0]:
                best = (cost, register, conflicts)
        own_cost = (float("inf") if is_spill_temp(interval.var)
                    else costs.get(interval.var, 1.0))
        if best is not None and best[0] < own_cost:
            _, register, conflicts = best
            for res in conflicts:
                residents[register].remove(res)
                del assignment[res.var]
                victims.append(res.var)
            residents[register].append(interval)
            assignment[interval.var] = register
        elif own_cost < float("inf"):
            victims.append(interval.var)
        else:
            raise RuntimeError("reload temporaries conflict in every register")
    return assignment, victims


def scan_classic(
    order: Sequence[LiveInterval], k: int, costs: Dict[Var, float],
    tracer: Tracer = NULL_TRACER,
) -> Tuple[Dict[Var, int], List[Var]]:
    """The Poletto scan with an active list rebuilt and the free
    registers re-sorted at every interval (the oracle for the two-heap
    classic scan of :mod:`repro.intervals.linear_scan`)."""
    assignment: Dict[Var, int] = {}
    victims: List[Var] = []
    free = list(range(k - 1, -1, -1))  # pop() hands out r0 first
    active: List[Tuple[int, int, Var]] = []  # (end, register, var)
    for interval in order:
        start = interval.start
        still: List[Tuple[int, int, Var]] = []
        for end, register, var in active:
            if end < start:
                free.append(register)
            else:
                still.append((end, register, var))
        active = still
        free.sort(reverse=True)
        if free:
            register = free.pop()
            assignment[interval.var] = register
            active.append((interval.end, register, interval.var))
            continue
        tracer.count("linscan.pressure_events")
        spillable = [t for t in active if not is_spill_temp(t[2])]
        furthest = (max(spillable, key=lambda t: (t[0], str(t[2])))
                    if spillable else None)
        if furthest is not None and (
            furthest[0] > interval.end or is_spill_temp(interval.var)
        ):
            end, register, var = furthest
            active.remove(furthest)
            del assignment[var]
            victims.append(var)
            assignment[interval.var] = register
            active.append((interval.end, register, interval.var))
        elif is_spill_temp(interval.var):
            raise RuntimeError(
                "register pressure cannot be reduced below "
                f"k={k}: more than k reload temporaries are "
                "simultaneously live"
            )
        else:
            victims.append(interval.var)
    return assignment, victims


def biased_greedy_coloring(
    graph: InterferenceGraph, k: int, tracer: Tracer = NULL_TRACER
) -> Optional[Dict[Vertex, int]]:
    """Biased colouring over dict sets: a forbidden-colour set per
    vertex from ``neighbors_view``, partners keyed by name, and the
    elimination order derived afresh on every call."""
    with tracer.span("biased-coloring"):
        order, success = repro_greedy.greedy_elimination_order(graph, k)
        if not success:
            return None
        partner_weights: Dict[Vertex, List[Tuple[Vertex, float]]] = {
            v: [] for v in graph.vertices
        }
        for u, v, w in graph.affinities():
            partner_weights[u].append((v, w))
            partner_weights[v].append((u, w))
        coloring: Dict[Vertex, int] = {}
        for v in reversed(order):
            forbidden = {
                coloring[u] for u in graph.neighbors_view(v) if u in coloring
            }
            preference: Dict[int, float] = {}
            for partner, w in partner_weights[v]:
                c = coloring.get(partner)
                if c is not None and c not in forbidden:
                    preference[c] = preference.get(c, 0.0) + w
            if preference:
                coloring[v] = max(sorted(preference),
                                  key=preference.__getitem__)
                tracer.count("biased.preferred")
                continue
            c = 0
            while c in forbidden:
                c += 1
            coloring[v] = c
            tracer.count("biased.fallback")
    return coloring


def maxlive(func: Function) -> int:
    """Maxlive from per-instruction Python sets (the oracle for the
    popcount walk of :func:`repro.ir.liveness.maxlive`)."""
    info = compute_liveness(func)
    best = 0
    for name in func.reachable():
        block = func.blocks[name]
        live = set(info.live_out[name])
        best = max(best, len(live))
        for instr in reversed(block.instrs):
            best = max(best, len(live | set(instr.defs)))
            live -= set(instr.defs)
            live |= set(instr.uses)
        phi_targets = {phi.target for phi in block.phis}
        best = max(best, len(live | phi_targets))
    return best


def pressure_maxlive(func: Function) -> int:
    """Maxlive ignoring memory-slot pseudo-variables, on Python sets
    (the oracle for :func:`repro.ir.liveness.maxlive` with
    ``skip=is_memory_slot``, the pressure the two-phase allocator
    spills down to)."""
    info = compute_liveness(func)
    best = 0
    for name in func.reachable():
        block = func.blocks[name]
        live = {v for v in info.live_out[name] if not is_memory_slot(v)}
        best = max(best, len(live))
        for instr in reversed(block.instrs):
            defs = {d for d in instr.defs if not is_memory_slot(d)}
            best = max(best, len(live | defs))
            live -= set(instr.defs)
            live |= {u for u in instr.uses if not is_memory_slot(u)}
        phi_targets = {
            p.target for p in block.phis if not is_memory_slot(p.target)
        }
        best = max(best, len(live | phi_targets))
    return best


def check_allocation_validity(
    result: Any, ctx: AnalysisContext
) -> Iterator[Diagnostic]:
    """ALLOC001–003 by one walk over the edges of the reference graph
    (the oracle for the row-mask pass of
    :mod:`repro.analysis.coalescing_check`)."""
    func = result.function
    assignment = result.assignment
    k = result.k
    graph = chaitin_interference(func, weighted=False)
    for u, v in graph.edges():
        ctx.check_budget()
        if is_memory_slot(u) or is_memory_slot(v):
            continue
        cu, cv = assignment.get(u), assignment.get(v)
        if cu is None or cv is None:
            missing = u if cu is None else v
            yield Diagnostic(
                "ALLOC003", "error",
                f"interfering variable {missing} has no register",
                where=str(missing), obj=func.name,
                detail={"vertex": str(missing)},
            )
        elif cu == cv:
            a, b = sorted((str(u), str(v)))
            yield Diagnostic(
                "ALLOC001", "error",
                f"{a} and {b} interfere but share register r{cu}",
                where=f"{a}--{b}", obj=func.name,
                detail={"edge": [a, b], "register": cu},
            )
    for v, c in assignment.items():
        if not isinstance(c, int) or not 0 <= c < k:
            yield Diagnostic(
                "ALLOC002", "error",
                f"{v} got out-of-range register r{c}",
                where=str(v), obj=func.name,
                detail={"vertex": str(v), "register": c, "k": k},
            )


def check_interval_allocation(
    result: Any, ctx: AnalysisContext
) -> Iterator[Diagnostic]:
    """INTV001–003 by one walk per edge and one range test per
    same-register pair (the oracle for the row-mask pass of
    :mod:`repro.analysis.interval_check`).  Intervals come from
    ``repro.intervals.model.build_intervals``, looked up at call time,
    so a test that patches it mutates both sides alike."""
    if not getattr(result, "interval_variant", ""):
        return
    from repro.intervals import model

    func = result.function
    iset = model.build_intervals(func)
    intervals = iset.intervals
    graph = chaitin_interference(func, weighted=False)

    def meets(a: Optional[LiveInterval], b: Optional[LiveInterval]) -> bool:
        return a is not None and b is not None \
            and ranges_intersect(a.ranges, b.ranges)

    for u, v in graph.edges():
        ctx.check_budget()
        if is_memory_slot(u) or is_memory_slot(v):
            continue
        if not meets(intervals.get(u), intervals.get(v)):
            a, b = sorted((str(u), str(v)))
            yield Diagnostic(
                "INTV001", "error",
                f"{a} and {b} interfere but their live intervals do "
                "not intersect — the interval abstraction missed an "
                "interference",
                where=f"{a}--{b}", obj=func.name,
                detail={"edge": [a, b]},
            )
    by_register: Dict[int, List[str]] = {}
    for var, register in result.assignment.items():
        if not is_memory_slot(var):
            by_register.setdefault(register, []).append(var)
    for register in sorted(by_register):
        members = sorted(by_register[register])
        for i, a in enumerate(members):
            ia = intervals.get(a)
            if ia is None:
                continue
            for b in members[i + 1:]:
                ctx.check_budget()
                if meets(ia, intervals.get(b)):
                    yield Diagnostic(
                        "INTV002", "error",
                        f"{a} and {b} share register r{register} but "
                        "their live intervals intersect",
                        where=f"{a}--{b}", obj=func.name,
                        detail={"pair": [a, b], "register": register},
                    )
    ctx.check_budget()
    overlap = iset.max_overlap()
    pressure = maxlive(func)
    if overlap == pressure:
        yield Diagnostic(
            "INTV003", "info",
            f"max simultaneous interval overlap {overlap} == Maxlive "
            "— the interval and set pressure views agree",
            obj=func.name,
            detail={"max_overlap": overlap, "maxlive": pressure},
        )
    else:
        yield Diagnostic(
            "INTV003", "error",
            f"max simultaneous interval overlap {overlap} != Maxlive "
            f"{pressure}",
            obj=func.name,
            detail={"max_overlap": overlap, "maxlive": pressure},
        )


def chaitin_color_round(
    graph: InterferenceGraph,
    k: int,
    test: str,
    costs: Dict[Var, float],
    spill_metric: str = "cost_degree",
    tracer: Tracer = NULL_TRACER,
) -> Tuple[Dict[Var, int], int, List[Var]]:
    """One simplify/coalesce/freeze/spill/select round on a copied
    dict graph (the oracle for the :class:`~repro.graphs.dense.DenseGraph`
    round of :mod:`repro.allocator.chaitin`).

    Returns (assignment over merged classes expanded to variables,
    number of coalesced moves, actual spills).
    """
    test_fn = TESTS[test]
    work = graph.copy()
    # members of each current vertex (for expanding colours at the end)
    members: Dict[Var, Set[Var]] = {v: {v} for v in work.vertices}
    stack: List[Tuple[Var, bool]] = []  # (vertex, is_potential_spill)
    coalesced_moves = 0
    frozen: Set[FrozenSet[Var]] = set()

    def move_related(v: Var) -> bool:
        return any(
            frozenset((a, b)) not in frozen
            for a, b, _ in work.affinities()
            if v in (a, b)
        )

    while len(work):
        # 1. simplify: a non-move-related vertex of low degree
        candidate = next(
            (
                v
                for v in work.vertices
                if work.degree(v) < k and not move_related(v)
            ),
            None,
        )
        if candidate is not None:
            stack.append((candidate, False))
            work.remove_vertex(candidate)
            tracer.count("chaitin.simplified")
            continue
        # 2. coalesce: a conservative move; brute falls back to the
        # relative Briggs+George rules mid-spill
        round_test = test_fn
        if test == "brute" and not is_greedy_k_colorable(work, k):
            round_test = TESTS["briggs_george"]
        merged = False
        for a, b, _ in sorted(
            work.affinities(), key=lambda t: (-t[2], str(t[0]), str(t[1]))
        ):
            if frozenset((a, b)) in frozen or work.has_edge(a, b):
                continue
            tracer.count("moves.attempted")
            if round_test(work, a, b, k):
                work.merge_in_place(a, b)
                members[a] = members[a] | members.pop(b)
                coalesced_moves += 1
                merged = True
                tracer.count("moves.coalesced")
                break
            tracer.count("moves.rejected")
        if merged:
            continue
        # 3. freeze: give up the cheapest move of a low-degree vertex
        freeze_candidate = next(
            (
                (a, b)
                for a, b, _ in sorted(work.affinities(), key=lambda t: t[2])
                if frozenset((a, b)) not in frozen
                and (work.degree(a) < k or work.degree(b) < k)
            ),
            None,
        )
        if freeze_candidate is not None:
            frozen.add(frozenset(freeze_candidate))
            tracer.count("chaitin.frozen_moves")
            continue
        # 4. potential spill: cheapest cost / degree ratio; reload
        # temporaries last (re-spilling them cannot reduce pressure)
        def spill_key(v: Var) -> Tuple[bool, float, str]:
            temp = all(is_spill_temp(m) for m in members[v])
            cost = sum(costs.get(m, 1.0) for m in members[v])
            if spill_metric == "cost":
                metric = cost
            elif spill_metric == "degree":
                metric = -work.degree(v)
            else:  # cost/degree, Chaitin's classic
                metric = cost / max(1, work.degree(v))
            return (temp, metric, str(v))

        spill_v = min(work.vertices, key=spill_key)
        stack.append((spill_v, True))
        work.remove_vertex(spill_v)
        tracer.count("chaitin.potential_spills")

    # select: colour merged classes in reverse removal order; a class's
    # forbidden colours come from any member adjacent to any coloured
    # member
    owner = {m: rep for rep, ms in members.items() for m in ms}
    assignment: Dict[Var, int] = {}
    actual_spills: List[Var] = []
    colored: Dict[Var, int] = {}
    for v, _potential in reversed(stack):
        used: Set[int] = set()
        for m in members[v]:
            for u in graph.neighbors_view(m):
                rep = owner[u]
                if rep in colored:
                    used.add(colored[rep])
        c = next((c for c in range(k) if c not in used), None)
        if c is None:
            actual_spills.extend(members[v])
            continue
        colored[v] = c
        for m in members[v]:
            assignment[m] = c
    return assignment, coalesced_moves, actual_spills
