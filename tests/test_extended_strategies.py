"""Tests for the extension strategies: extended George rule, the
chordal-aware incremental strategy (the paper's proposed design), and
biased colouring."""

import random

import pytest

from repro.allocator import ssa_allocate
from repro.engine.tasks import STRATEGY_TABLE
from repro.challenge.generator import pressure_instance, program_instance
from repro.coalescing import (
    biased_coloring_result,
    biased_greedy_coloring,
    chordal_incremental_coalesce,
    conservative_coalesce,
)
from repro.graphs.chordal import clique_number_chordal, is_chordal
from repro.graphs.coloring import verify_coloring
from repro.graphs.generators import (
    complete_graph,
    cycle_graph,
    random_chordal_graph,
)
from repro.graphs.greedy import is_greedy_k_colorable
from repro.graphs.interference import InterferenceGraph
from repro.ir import GeneratorConfig, random_function
from repro.obs import Tracer
from tests import reference as ref
from tests.reference import (
    george_extended_test,
    george_extended_test_both,
    george_test,
    george_test_both,
)
from tests import allocation_errors


def chordal_instance(seed: int, num_affinities: int = 6):
    rng = random.Random(seed)
    base = random_chordal_graph(rng.randint(6, 16), 4, rng)
    g = InterferenceGraph()
    for v in base.vertices:
        g.add_vertex(v)
    for u, v in base.edges():
        g.add_edge(u, v)
    vs = sorted(g.vertices)
    for _ in range(num_affinities):
        a, b = rng.sample(vs, 2)
        if not g.has_affinity(a, b):
            g.add_affinity(a, b, rng.choice([1.0, 2.0, 5.0]))
    k = max(1, clique_number_chordal(base))
    return g, k


class TestExtendedGeorge:
    def test_accepts_superset_of_plain_george(self):
        for seed in range(10):
            g, k = chordal_instance(seed)
            for u, v, _ in g.affinities():
                if g.has_edge(u, v):
                    continue
                if george_test_both(g, u, v, k):
                    assert george_extended_test_both(g, u, v, k), seed

    def test_interfering_rejected(self):
        g = InterferenceGraph(edges=[("u", "v")])
        assert not george_extended_test(g, "u", "v", 3)

    def test_exempts_removable_neighbor(self):
        # t has degree >= k but fewer than k significant neighbours:
        # plain George (u into v) refuses since t is not adjacent to v,
        # while the extended rule accepts
        g = InterferenceGraph()
        g.add_edge("u", "t")
        g.add_edge("t", "p1")
        g.add_edge("t", "p2")   # deg(t) = 3 >= k = 3
        g.add_vertex("v")
        g.add_edge("v", "z")
        assert not george_test(g, "u", "v", 3)
        assert george_extended_test(g, "u", "v", 3)

    def test_preserves_greedy_colorability(self):
        for seed in range(12):
            inst = pressure_instance(5, 7, margin=0, rng=random.Random(seed))
            r = conservative_coalesce(inst.graph, inst.k, test="george_extended")
            assert is_greedy_k_colorable(r.coalesced_graph(), inst.k), seed

    def test_coalesces_at_least_george_in_aggregate(self):
        total_g = total_e = 0.0
        for seed in range(10):
            inst = pressure_instance(5, 7, margin=0, rng=random.Random(seed))
            total_g += conservative_coalesce(
                inst.graph, inst.k, test="george"
            ).residual_weight
            total_e += conservative_coalesce(
                inst.graph, inst.k, test="george_extended"
            ).residual_weight
        assert total_e <= total_g + 1e-9


class TestChordalStrategy:
    def test_rejects_non_chordal(self):
        g = InterferenceGraph()
        for u, v in cycle_graph(4).edges():
            g.add_edge(u, v)
        with pytest.raises(ValueError):
            chordal_incremental_coalesce(g, 3)

    def test_rejects_clique_above_k(self):
        g = InterferenceGraph()
        for u, v in complete_graph(4).edges():
            g.add_edge(u, v)
        with pytest.raises(ValueError):
            chordal_incremental_coalesce(g, 3)

    def test_quotient_chordal_and_colorable(self):
        for seed in range(15):
            g, k = chordal_instance(seed)
            r = chordal_incremental_coalesce(g, k)
            q = r.coalesced_graph()
            assert is_chordal(q), seed
            assert is_greedy_k_colorable(q, k), seed

    def test_single_affinity_matches_theorem5(self):
        from repro.coalescing import chordal_incremental_coalescible

        for seed in range(15):
            g, k = chordal_instance(seed, num_affinities=1)
            (u, v, _) = next(g.affinities(), (None, None, None))
            if u is None:
                continue
            r = chordal_incremental_coalesce(g, k)
            expected = (
                not g.has_edge(u, v)
                and chordal_incremental_coalescible(
                    g, u, v, k
                ).mergeable
            )
            assert (r.num_coalesced == 1) == expected, seed

    def test_competitive_with_brute_on_programs(self):
        total_c = total_b = 0.0
        for seed in range(8):
            inst = program_instance(seed, 4)
            total_c += chordal_incremental_coalesce(
                inst.graph, inst.k
            ).residual_weight
            total_b += conservative_coalesce(
                inst.graph, inst.k, test="brute"
            ).residual_weight
        # same ballpark: within 25% of brute force in aggregate
        assert total_c <= total_b * 1.25 + 1e-9

    def test_allocator_integration(self):
        f = random_function(3, GeneratorConfig(num_vars=8, move_fraction=0.4))
        res, stats = ssa_allocate(f, 4, STRATEGY_TABLE["chordal"].run)
        assert allocation_errors(res) == []


def _biased_outcome(graph, k):
    """Colouring (in order), partition, coalesced list and counters of
    one biased run, on a fresh tracer."""
    tracer = Tracer()
    result = biased_coloring_result(graph, k, tracer=tracer)
    classes = sorted(sorted(map(str, cls))
                     for cls in result.coalescing.classes())
    return (list(result.coloring.items()), classes, result.coalesced,
            tracer.counters)


def _biased_as_reference(graph, k, monkeypatch):
    """The twin-mask colouring gives what the dict-set loop of
    ``tests/reference`` gives, and return the outcome."""
    import repro.coalescing.biased as biased

    got = _biased_outcome(graph, k)
    with monkeypatch.context() as patch:
        patch.setattr(biased, "biased_greedy_coloring",
                      ref.biased_greedy_coloring)
        expected = _biased_outcome(graph, k)
    assert got == expected
    return got


class TestBiasedColoring:
    def test_corpus_matches_dict_coloring(self, monkeypatch):
        from repro.frontend import corpus_functions
        from repro.frontend.corpus import function_instance

        preferred = 0
        for _path, func in corpus_functions():
            inst = function_instance(func)
            counters = _biased_as_reference(inst.graph, inst.k,
                                            monkeypatch)[3]
            preferred += counters.get("biased.preferred", 0)
        assert preferred > 0

    def test_random_graphs_match_dict_coloring(self, monkeypatch):
        """Random graphs with random affinities at their colouring
        number, vertex names mixing ints and strings."""
        from repro.graphs.greedy import coloring_number

        preferred = 0
        for seed in range(60):
            rng = random.Random(seed)
            n = rng.randint(8, 30)
            names = [f"v{i}" if i % 3 else i for i in range(n)]
            rng.shuffle(names)
            g = InterferenceGraph(vertices=names)
            p = rng.uniform(0.1, 0.4)
            for i in range(n):
                for j in range(i + 1, n):
                    if rng.random() < p:
                        g.add_edge(names[i], names[j])
            for _ in range(rng.randint(n // 2, 2 * n)):
                a, b = rng.sample(names, 2)
                g.add_affinity(a, b, rng.choice([0.5, 1.0, 2.0, 3.0]))
            counters = _biased_as_reference(g, coloring_number(g),
                                            monkeypatch)[3]
            preferred += counters.get("biased.preferred", 0)
        assert preferred > 60

    def test_elimination_order_kept_per_k(self):
        """The twin keeps its elimination order per k; a mutated graph
        gets a new twin and a new order."""
        g = InterferenceGraph()
        g.add_edge("a", "b")
        g.add_edge("b", "c")
        g.add_affinity("a", "c", 2.0)
        twin = g.dense()
        first = biased_greedy_coloring(g, 2)
        assert biased_greedy_coloring(g, 2) == first
        assert biased_greedy_coloring(g, 1) is None
        assert set(twin._kept) == {"elimination-order/2",
                                   "elimination-order/1"}
        g.add_edge("a", "c")
        assert biased_greedy_coloring(g, 2) is None
        assert g.dense() is not twin

    def test_valid_coloring(self):
        for seed in range(10):
            inst = pressure_instance(5, 7, margin=1, rng=random.Random(seed))
            col = biased_greedy_coloring(inst.graph, inst.k)
            assert col is not None
            assert verify_coloring(inst.graph, col), seed
            assert max(col.values()) < inst.k

    def test_none_when_not_colorable(self):
        g = InterferenceGraph()
        for u, v in complete_graph(4).edges():
            g.add_edge(u, v)
        assert biased_greedy_coloring(g, 3) is None

    def test_bias_removes_obvious_move(self):
        g = InterferenceGraph()
        g.add_edge("a", "b")
        g.add_affinity("a", "c", 5.0)
        col = biased_greedy_coloring(g, 2)
        assert col["a"] == col["c"]

    def test_result_wrapper(self):
        g = InterferenceGraph()
        g.add_edge("a", "b")
        g.add_affinity("a", "c", 5.0)
        r = biased_coloring_result(g, 2)
        assert r.num_coalesced == 1
        assert r.strategy == "biased"

    def test_result_rejects_uncolorable(self):
        g = InterferenceGraph()
        for u, v in complete_graph(4).edges():
            g.add_edge(u, v)
        with pytest.raises(ValueError):
            biased_coloring_result(g, 3)

    def test_weaker_than_brute_but_nonzero(self):
        total_bias = total_brute = coalesced_any = 0.0
        for seed in range(8):
            inst = pressure_instance(5, 8, margin=0, rng=random.Random(seed))
            rb = biased_coloring_result(inst.graph, inst.k)
            total_bias += rb.residual_weight
            coalesced_any += rb.num_coalesced
            total_brute += conservative_coalesce(
                inst.graph, inst.k, test="brute"
            ).residual_weight
        assert coalesced_any > 0
        assert total_brute <= total_bias + 1e-9

    def test_allocator_integration(self):
        f = random_function(5, GeneratorConfig(num_vars=8, move_fraction=0.4))
        res, stats = ssa_allocate(f, 4, STRATEGY_TABLE["biased"].run)
        assert allocation_errors(res) == []
        assert res.coalesced_moves >= 0
