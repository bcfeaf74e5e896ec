"""Tests for greedy-k-colorability (Section 2.2) and Properties 1–2."""

import random

import pytest
from hypothesis import given, settings, strategies as st

from repro.graphs.chordal import clique_number_chordal, is_chordal
from repro.graphs.coloring import is_k_colorable, verify_coloring
from repro.graphs.generators import (
    augment_with_clique,
    complete_graph,
    cycle_graph,
    random_chordal_graph,
    random_graph,
)
from repro.graphs.greedy import (
    coloring_number,
    dense_subgraph_witness,
    greedy_elimination_order,
    greedy_k_coloring,
    is_greedy_k_colorable,
)
from repro.graphs.graph import Graph


class TestElimination:
    def test_empty(self):
        assert is_greedy_k_colorable(Graph(), 0)

    def test_single_vertex(self):
        g = Graph(vertices=["a"])
        assert not is_greedy_k_colorable(g, 0)
        assert is_greedy_k_colorable(g, 1)

    def test_negative_k_rejected(self):
        with pytest.raises(ValueError):
            is_greedy_k_colorable(Graph(), -1)

    def test_complete_graph(self):
        g = complete_graph(4)
        assert not is_greedy_k_colorable(g, 3)
        assert is_greedy_k_colorable(g, 4)

    def test_cycle(self):
        # a cycle is 2-degenerate: greedy-3-colorable but not greedy-2
        g = cycle_graph(6)
        assert not is_greedy_k_colorable(g, 2)
        assert is_greedy_k_colorable(g, 3)

    def test_order_is_full_on_success(self):
        g = cycle_graph(5)
        order, ok = greedy_elimination_order(g, 3)
        assert ok and len(order) == 5

    def test_order_confluence(self):
        # success does not depend on tie-breaking: permuting insertion
        # order must not change the outcome
        g = random_graph(14, 0.3, random.Random(7))
        k = coloring_number(g)
        names = list(g.vertices)
        for seed in range(5):
            rng = random.Random(seed)
            shuffled = list(names)
            rng.shuffle(shuffled)
            h = Graph(vertices=shuffled)
            for u, v in g.edges():
                h.add_edge(u, v)
            assert is_greedy_k_colorable(h, k)
            assert not is_greedy_k_colorable(h, k - 1)


class TestGreedyColoring:
    def test_coloring_valid(self):
        for seed in range(5):
            g = random_graph(15, 0.3, random.Random(seed))
            k = coloring_number(g)
            col = greedy_k_coloring(g, k)
            assert col is not None
            assert verify_coloring(g, col)
            assert max(col.values(), default=-1) < k

    def test_returns_none_when_stuck(self):
        assert greedy_k_coloring(complete_graph(4), 3) is None


class TestColoringNumber:
    def test_empty(self):
        assert coloring_number(Graph()) == 0

    def test_known_values(self):
        assert coloring_number(complete_graph(5)) == 5
        assert coloring_number(cycle_graph(7)) == 3
        assert coloring_number(Graph(vertices=["a"])) == 1

    def test_characterizes_greedy_colorability(self):
        for seed in range(8):
            g = random_graph(12, 0.35, random.Random(seed))
            c = coloring_number(g)
            assert is_greedy_k_colorable(g, c)
            if c > 0:
                assert not is_greedy_k_colorable(g, c - 1)


class TestWitness:
    def test_none_when_colorable(self):
        assert dense_subgraph_witness(cycle_graph(5), 3) is None

    def test_witness_min_degree(self):
        g = complete_graph(5)
        w = dense_subgraph_witness(g, 4)
        assert w is not None
        sub = g.subgraph(w)
        assert all(sub.degree(v) >= 4 for v in sub.vertices)


class TestProperty1:
    """k-colorable chordal graphs are greedy-k-colorable."""

    def test_on_random_chordal(self):
        for seed in range(15):
            g = random_chordal_graph(14, 5, random.Random(seed))
            if len(g) == 0:
                continue
            w = clique_number_chordal(g)
            assert is_greedy_k_colorable(g, w), seed

    def test_greedy_strictly_larger_class(self):
        # C5 is greedy-3-colorable but not chordal: the containment of
        # Property 1 is strict
        g = cycle_graph(5)
        assert not is_chordal(g)
        assert is_greedy_k_colorable(g, 3)


class TestProperty2:
    """Adding a universal p-clique lifts every notion from k to k+p."""

    @pytest.mark.parametrize("p", [1, 2, 3])
    def test_colorability_lift(self, p):
        g = cycle_graph(5)
        aug = augment_with_clique(g, p)
        assert not is_k_colorable(aug, 2 + p)
        assert is_k_colorable(aug, 3 + p)

    @pytest.mark.parametrize("p", [1, 2])
    def test_greedy_lift(self, p):
        for seed in range(5):
            g = random_graph(10, 0.35, random.Random(seed))
            c = coloring_number(g)
            aug = augment_with_clique(g, p)
            assert coloring_number(aug) == c + p

    @pytest.mark.parametrize("p", [1, 2])
    def test_chordality_lift(self, p):
        assert is_chordal(augment_with_clique(complete_graph(3), p))
        assert not is_chordal(augment_with_clique(cycle_graph(4), p))

    def test_name_collision_rejected(self):
        g = Graph(vertices=["aug0"])
        with pytest.raises(ValueError):
            augment_with_clique(g, 1)


@settings(max_examples=40, deadline=None)
@given(st.integers(min_value=0, max_value=60))
def test_property_greedy_implies_kcolorable(seed):
    rng = random.Random(seed)
    g = random_graph(rng.randint(2, 10), rng.uniform(0.2, 0.7), rng)
    c = coloring_number(g)
    # greedy-c-colorable (by definition of c) implies c-colorable
    assert is_k_colorable(g, c)


@settings(max_examples=40, deadline=None)
@given(st.integers(min_value=0, max_value=60))
def test_property_coloring_number_is_degeneracy_plus_one(seed):
    import networkx as nx

    rng = random.Random(seed)
    g = random_graph(rng.randint(2, 14), rng.uniform(0.1, 0.6), rng)
    nxg = nx.Graph()
    nxg.add_nodes_from(g.vertices)
    nxg.add_edges_from(g.edges())
    # col(G) = degeneracy + 1 (Section 2.2 / Jensen-Toft)
    degeneracy = max(nx.core_number(nxg).values()) if len(g) else -1
    assert coloring_number(g) == degeneracy + 1
