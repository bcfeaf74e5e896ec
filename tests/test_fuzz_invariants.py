"""Property-based fuzzing of structural invariants.

Random operation sequences against Graph / InterferenceGraph /
Coalescing, checking that the core invariants survive any interleaving
of mutations — the kind of misuse a downstream client would produce.
"""

import random

import pytest
from hypothesis import given, settings, strategies as st

from repro.graphs.coloring import verify_coloring
from repro.graphs.generators import random_graph
from repro.graphs.graph import Graph
from repro.graphs.greedy import (
    coloring_number,
    greedy_k_coloring,
    is_greedy_k_colorable,
)
from repro.graphs.interference import Coalescing, InterferenceGraph
from tests import reference as ref

NAMES = [f"n{i}" for i in range(10)]


def check_graph_invariants(g: Graph) -> None:
    # adjacency symmetric, no loops, degree consistency
    for v in g.vertices:
        assert v not in g.neighbors_view(v)
        for u in g.neighbors_view(v):
            assert v in g.neighbors_view(u)
        assert g.degree(v) == len(g.neighbors_view(v))
    assert g.num_edges() * 2 == sum(g.degree(v) for v in g.vertices)


def check_interference_invariants(g: InterferenceGraph) -> None:
    check_graph_invariants(g)
    for u, v, w in g.affinities():
        assert u in g and v in g
        assert u != v
        assert w > 0


@settings(max_examples=60, deadline=None)
@given(st.lists(st.tuples(st.integers(0, 5), st.integers(0, 9), st.integers(0, 9)), max_size=40))
def test_fuzz_graph_operations(ops):
    g = InterferenceGraph()
    for op, a, b in ops:
        u, v = NAMES[a], NAMES[b]
        if op == 0:
            g.add_vertex(u)
        elif op == 1 and u != v:
            g.add_edge(u, v)
        elif op == 2:
            if u in g:
                g.remove_vertex(u)
        elif op == 3:
            if g.has_edge(u, v):
                g.remove_edge(u, v)
        elif op == 4 and u != v:
            g.add_affinity(u, v, 1.0 + b)
        elif op == 5:
            if u in g and v in g and u != v and not g.has_edge(u, v):
                g.merge_in_place(u, v)
        check_interference_invariants(g)


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 10_000))
def test_fuzz_copy_subgraph_consistency(seed):
    rng = random.Random(seed)
    g = random_graph(rng.randint(1, 12), rng.uniform(0.1, 0.7), rng)
    c = g.copy()
    assert c == g
    keep = [v for v in g.vertices if rng.random() < 0.6]
    sub = g.subgraph(keep)
    check_graph_invariants(sub)
    for u, v in sub.edges():
        assert g.has_edge(u, v)
    # mutating the copy leaves the original alone
    if len(c):
        c.remove_vertex(next(iter(c.vertices)))
        assert len(c) == len(g) - 1


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 10_000))
def test_fuzz_coalescing_union_sequences(seed):
    rng = random.Random(seed)
    g = InterferenceGraph()
    names = NAMES[: rng.randint(3, 9)]
    for i, u in enumerate(names):
        g.add_vertex(u)
        for v in names[:i]:
            if rng.random() < 0.3:
                g.add_edge(u, v)
    c = Coalescing(g)
    for _ in range(15):
        u, v = rng.choice(names), rng.choice(names)
        if u == v:
            continue
        if c.can_union(u, v):
            c.union(u, v)
            assert c.same_class(u, v)
        else:
            with pytest.raises(ValueError):
                c.union(u, v)
    # classes partition the vertex set
    members = [m for cls in c.classes() for m in cls]
    assert sorted(map(str, members)) == sorted(map(str, names))
    # no class contains an interference
    for cls in c.classes():
        cls = list(cls)
        for i, u in enumerate(cls):
            for v in cls[i + 1:]:
                assert not g.has_edge(u, v)
    # the quotient never invalidates (would raise)
    c.coalesced_graph()


@settings(max_examples=40, deadline=None)
@given(st.integers(0, 10_000))
def test_fuzz_greedy_coloring_consistency(seed):
    rng = random.Random(seed)
    g = random_graph(rng.randint(1, 14), rng.uniform(0.1, 0.7), rng)
    col_number = coloring_number(g)
    for k in (col_number - 1, col_number, col_number + 2):
        colorable = is_greedy_k_colorable(g, max(0, k))
        coloring = greedy_k_coloring(g, max(0, k))
        assert colorable == (coloring is not None)
        if coloring is not None:
            assert verify_coloring(g, coloring)
            assert max(coloring.values(), default=-1) < max(0, k) or len(g) == 0


@settings(max_examples=40, deadline=None)
@given(st.integers(0, 10_000))
def test_fuzz_merge_preserves_coloring_semantics(seed):
    """Merging two non-adjacent vertices never decreases the chromatic
    number below the original and maps colourings back correctly."""
    from repro.graphs.coloring import chromatic_number, k_coloring_exact

    rng = random.Random(seed)
    g = random_graph(rng.randint(2, 8), rng.uniform(0.1, 0.6), rng)
    vs = list(g.vertices)
    pairs = [
        (u, v)
        for i, u in enumerate(vs)
        for v in vs[i + 1:]
        if not g.has_edge(u, v)
    ]
    if not pairs:
        return
    u, v = rng.choice(pairs)
    merged = g.merged(u, v)
    chi = chromatic_number(g)
    chi_merged = chromatic_number(merged)
    assert chi_merged >= chi
    # a colouring of the merged graph lifts to one of g with c(u)==c(v)
    lifted = k_coloring_exact(merged, chi_merged)
    coloring = dict(lifted)
    coloring[v] = lifted[u]
    assert verify_coloring(g, coloring)


# ---------------------------------------------------------------------------
# dense bitset kernels vs the dict-of-set references in tests/reference
# ---------------------------------------------------------------------------

@settings(max_examples=60, deadline=None)
@given(st.integers(0, 10_000))
def test_fuzz_dense_roundtrip_and_merge(seed):
    """DenseGraph.from_graph is lossless, and an arbitrary sequence of
    dense merges mirrors the dict graph's own merged() semantics."""
    from repro.graphs.dense import DenseGraph

    rng = random.Random(seed)
    g = random_graph(rng.randint(1, 12), rng.uniform(0.1, 0.7), rng)
    d = DenseGraph.from_graph(g)
    assert d.to_graph() == g
    mirror = g.copy()
    for _ in range(4):
        names = list(mirror.vertices)
        pairs = [
            (u, v)
            for i, u in enumerate(names)
            for v in names[i + 1:]
            if not mirror.has_edge(u, v)
        ]
        if not pairs:
            break
        u, v = rng.choice(pairs)
        d.merge_in_place(d.index[u], d.index[v])
        mirror.merge_in_place(u, v)
        assert d.to_graph() == mirror
        check_graph_invariants(d.to_graph())


@settings(max_examples=40, deadline=None)
@given(st.integers(0, 10_000))
def test_fuzz_dense_kernels_match_dict(seed):
    """MCS orders, greedy colourings, and k-colorability verdicts are
    identical between the dense kernels and the dict references."""
    from repro.graphs.chordal import maximum_cardinality_search
    from repro.graphs.coloring import greedy_coloring

    rng = random.Random(seed)
    g = random_graph(rng.randint(0, 16), rng.uniform(0.05, 0.8), rng)
    assert (maximum_cardinality_search(g)
            == ref.maximum_cardinality_search(g))
    assert greedy_coloring(g) == ref.greedy_coloring(g)
    k = rng.randint(0, 8)
    _, success = ref.greedy_elimination_order(g, k)
    assert is_greedy_k_colorable(g, k) == success


@settings(max_examples=30, deadline=None)
@given(st.integers(0, 10_000))
def test_fuzz_dense_conservative_tests_match_dict(seed):
    """Briggs/George (and friends) return the same verdict on every
    candidate pair on the dense and the dict-of-set graph."""
    from repro.graphs.dense import DENSE_TESTS, DenseGraph
    from tests.reference import TESTS

    rng = random.Random(seed)
    g = random_graph(rng.randint(2, 10), rng.uniform(0.1, 0.6), rng)
    ig = InterferenceGraph(vertices=list(g.vertices))
    for u, v in g.edges():
        ig.add_edge(u, v)
    d = DenseGraph.from_graph(ig)
    k = rng.randint(1, 5)
    names = list(ig.vertices)
    test = rng.choice(sorted(TESTS))
    for i, u in enumerate(names):
        for v in names[i + 1:]:
            assert (DENSE_TESTS[test](d, d.index[u], d.index[v], k)
                    == TESTS[test](ig, u, v, k)), (test, u, v, k)


@settings(max_examples=20, deadline=None)
@given(st.integers(0, 10_000))
def test_fuzz_conservative_backends_agree(seed):
    """conservative_coalesce and the reference rounds produce the same
    partition and the same move ledger on fuzz pressure instances."""
    from repro.challenge.generator import pressure_instance
    from repro.coalescing.conservative import conservative_coalesce

    rng = random.Random(seed)
    inst = pressure_instance(rng.randint(3, 6), rng.randint(3, 6),
                             rng=rng, name=f"fuzz-{seed}")
    test = rng.choice(["briggs", "george", "briggs_george", "brute"])
    r_dict = ref.conservative_coalesce(inst.graph, inst.k, test=test)
    r_dense = conservative_coalesce(inst.graph, inst.k, test=test)
    assert r_dict.as_mapping() == r_dense.coalescing.as_mapping()
    assert r_dict.uncoalesced_affinities() == r_dense.given_up


@settings(max_examples=25, deadline=None)
@given(st.integers(0, 10_000))
def test_fuzz_build_backends_agree(seed):
    """Liveness sets and interference graphs (edges + affinities) are
    identical between the mask-based and the reference builders."""
    from repro.ir.generators import random_function
    from repro.ir.interference import chaitin_interference
    from repro.ir.liveness import compute_liveness

    func = random_function(seed)
    dense_live = compute_liveness(func)
    dict_live = ref.compute_liveness(func)
    assert dense_live.live_in == dict_live.live_in
    assert dense_live.live_out == dict_live.live_out
    g_dense = chaitin_interference(func)
    g_dict = ref.chaitin_interference(func)
    assert set(g_dense.vertices) == set(g_dict.vertices)
    assert ({frozenset(e) for e in g_dense.edges()}
            == {frozenset(e) for e in g_dict.edges()})
    assert sorted(g_dense.affinities()) == sorted(g_dict.affinities())


# ---------------------------------------------------------------------------
# analysis passes on fuzz-generated artifacts
# ---------------------------------------------------------------------------

@settings(max_examples=30, deadline=None)
@given(st.integers(0, 10_000))
def test_fuzz_programs_pass_analysis(seed):
    """Every generated strict program is clean under `repro check`
    semantics: no diagnostics at the default (warning) severity —
    except FLOW002 dead-definition lint, which legitimately fires on
    random programs (the generator performs no dead-code elimination,
    so unused definitions are expected, not an invariant violation)."""
    from repro.analysis import filter_diagnostics
    from repro.analysis.runner import check_function
    from repro.ir.generators import random_function

    func = random_function(seed)
    diagnostics = check_function(func)
    unexpected = [
        d for d in filter_diagnostics(diagnostics, "warning")
        if d.code != "FLOW002"
    ]
    assert unexpected == [], [str(d) for d in unexpected]


@settings(max_examples=30, deadline=None)
@given(st.integers(0, 10_000))
def test_fuzz_ssa_programs_certify_theorem1(seed):
    """SSA construction over a fuzz program yields a function whose
    interference graph the chordality pass certifies (Theorem 1)."""
    from repro.analysis.runner import check_function
    from repro.ir.generators import random_function
    from repro.ir.ssa import construct_ssa

    ssa = construct_ssa(random_function(seed))
    diagnostics = check_function(ssa)
    assert not any(d.severity == "error" for d in diagnostics), [
        str(d) for d in diagnostics if d.severity == "error"
    ]
    assert any(d.code == "LIVE004" and d.severity == "info"
               for d in diagnostics)


@settings(max_examples=25, deadline=None)
@given(st.integers(0, 10_000))
def test_fuzz_coalescing_results_pass_analysis(seed):
    """Conservative coalescing on fuzz instances always produces a
    result the translation-validation passes accept."""
    from repro.analysis import filter_diagnostics
    from repro.analysis.runner import check_coalescing_result
    from repro.challenge.generator import pressure_instance
    from repro.coalescing.conservative import conservative_coalesce

    rng = random.Random(seed)
    inst = pressure_instance(rng.randint(3, 6), rng.randint(3, 7),
                             rng=rng, name=f"fuzz-{seed}")
    result = conservative_coalesce(
        inst.graph, inst.k, test=rng.choice(["briggs", "george", "brute"])
    )
    diagnostics = check_coalescing_result(result, k=inst.k)
    assert filter_diagnostics(diagnostics, "warning") == [], [
        str(d) for d in filter_diagnostics(diagnostics, "warning")
    ]


# ---------------------------------------------------------------------------
# frontend corpus: every checked-in .ll function is an oracle input
# ---------------------------------------------------------------------------

def _corpus_cases():
    from repro.frontend import corpus_functions

    return [
        pytest.param(func, id=f"{path.stem}:{func.name}")
        for path, func in corpus_functions()
    ]


@pytest.mark.parametrize("func", _corpus_cases())
def test_corpus_backends_agree(func):
    """Dense and reference liveness + interference builders agree on
    every real, frontend-lowered corpus function (not only on generated
    programs — the corpus exercises shapes the generators never emit:
    switch fan-out, critical self-loops, φ'd constant materialization)."""
    from repro.ir.interference import chaitin_interference
    from repro.ir.liveness import compute_liveness

    dense_live = compute_liveness(func)
    dict_live = ref.compute_liveness(func)
    assert dense_live.live_in == dict_live.live_in
    assert dense_live.live_out == dict_live.live_out
    g_dense = chaitin_interference(func)
    g_dict = ref.chaitin_interference(func)
    assert set(g_dense.vertices) == set(g_dict.vertices)
    assert ({frozenset(e) for e in g_dense.edges()}
            == {frozenset(e) for e in g_dict.edges()})
    assert sorted(g_dense.affinities()) == sorted(g_dict.affinities())


@pytest.mark.parametrize("func", _corpus_cases())
def test_corpus_certifies_strict_ssa(func):
    """`repro check` semantics on the corpus: zero diagnostics at the
    default (warning) severity, and the Theorem 1 chordality
    certificate (LIVE004) present — real LLVM input is strict SSA, so
    its interference graph must be chordal with ω = Maxlive."""
    from repro.analysis import filter_diagnostics
    from repro.analysis.runner import check_function

    diagnostics = check_function(func)
    assert filter_diagnostics(diagnostics, "warning") == [], [
        str(d) for d in filter_diagnostics(diagnostics, "warning")
    ]
    assert any(d.code == "LIVE004" and d.severity == "info"
               for d in diagnostics)


@settings(max_examples=15, deadline=None)
@given(st.integers(0, 10_000))
def test_fuzz_allocations_pass_analysis(seed):
    """Chaitin allocation over fuzz programs validates cleanly."""
    from repro.analysis import filter_diagnostics
    from repro.analysis.runner import check_allocation
    from repro.allocator.chaitin import chaitin_allocate
    from repro.ir.generators import random_function

    try:
        result = chaitin_allocate(random_function(seed), 4)
    except RuntimeError:
        return  # spilling did not converge: not an analysis concern
    diagnostics = check_allocation(result)
    assert filter_diagnostics(diagnostics, "warning") == [], [
        str(d) for d in filter_diagnostics(diagnostics, "warning")
    ]
