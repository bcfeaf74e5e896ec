"""Tests for the Theorem 3 reduction (k-colorability → conservative
coalescing, Figure 2)."""

import random

import pytest

from repro.graphs.chordal import is_chordal
from repro.graphs.coloring import is_k_colorable, k_coloring_exact
from repro.graphs.generators import (
    complete_graph,
    cycle_graph,
    random_graph,
)
from repro.graphs.greedy import is_greedy_k_colorable
from repro.reductions.conservative_reduction import (
    coloring_to_coalescing,
    decide_source_via_target,
    full_coalescing,
    reduce_colorability,
    verify_equivalence,
)


class TestConstruction:
    def test_target_is_disjoint_edges(self):
        red = reduce_colorability(cycle_graph(5), 3)
        h = red.interference
        # greedy-2-colorable: max degree 1
        assert h.max_degree() == 1
        assert is_greedy_k_colorable(h, 2)

    def test_affinity_count(self):
        g = cycle_graph(5)
        red = reduce_colorability(g, 3)
        assert red.interference.num_affinities() == 2 * g.num_edges()

    def test_full_coalescing_quotient_is_source(self):
        g = cycle_graph(5)
        red = reduce_colorability(g, 3)
        quotient = full_coalescing(red).coalesced_graph()
        # quotient is isomorphic to g under representative renaming
        assert len(quotient) == len(g)
        assert quotient.num_edges() == g.num_edges()

    def test_cliquefier_adds_pair_gadgets(self):
        g = cycle_graph(4)
        red = reduce_colorability(g, 2, cliquefier=True)
        assert len(red.pair_gadgets) == 6  # C(4,2)
        assert red.interference.num_affinities() == 2 * 4 + 2 * 6


class TestEquivalence:
    @pytest.mark.parametrize(
        "graph,k,expected",
        [
            (cycle_graph(5), 3, True),
            (cycle_graph(5), 2, False),
            (complete_graph(4), 3, False),
            (complete_graph(4), 4, True),
            (cycle_graph(6), 2, True),
        ],
    )
    def test_known_instances(self, graph, k, expected):
        red = reduce_colorability(graph, k)
        source, target = verify_equivalence(red)
        assert source == expected
        assert target == expected

    def test_random_instances(self):
        for seed in range(12):
            rng = random.Random(seed)
            g = random_graph(rng.randint(4, 7), 0.5, rng)
            k = rng.randint(2, 3)
            red = reduce_colorability(g, k)
            source, target = verify_equivalence(red)
            assert source == target, seed


class TestColoringToCoalescing:
    def test_total_coalescing_quotient_clique(self):
        g = cycle_graph(6)  # 2-colorable
        red = reduce_colorability(g, 2, cliquefier=True)
        coloring = k_coloring_exact(g, 2)
        assert coloring is not None
        co = coloring_to_coalescing(red, coloring)
        quotient = co.coalesced_graph()
        # colour classes merged pairwise: the quotient of the original
        # vertices is a clique of ≤ k vertices (chordal AND greedy-k)
        original_reps = {co.find(v) for v in g.vertices}
        assert len(original_reps) <= 2
        assert is_chordal(quotient)
        assert is_greedy_k_colorable(quotient, 2)

    def test_every_edge_gadget_coalesced(self):
        g = cycle_graph(6)
        red = reduce_colorability(g, 2, cliquefier=True)
        co = coloring_to_coalescing(red, k_coloring_exact(g, 2))
        for (u, v), (xe, ye) in red.edge_gadgets.items():
            assert co.same_class(u, xe)
            assert co.same_class(v, ye)

    def test_pair_gadget_cost_at_most_one(self):
        g = cycle_graph(6)
        red = reduce_colorability(g, 2, cliquefier=True)
        co = coloring_to_coalescing(red, k_coloring_exact(g, 2))
        # per pair gadget at most one of its two affinities is given up
        for (u, v), xuv in red.pair_gadgets.items():
            broken = (not co.same_class(u, xuv)) + (not co.same_class(v, xuv))
            assert broken <= 1
