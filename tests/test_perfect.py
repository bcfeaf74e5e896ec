"""Tests for the perfect-graph utilities (Section 2.2 context)."""

import random

import pytest
from hypothesis import given, settings, strategies as st

from repro.graphs.chordal import is_chordal
from repro.graphs.generators import (
    complete_graph,
    cycle_graph,
    random_chordal_graph,
    random_graph,
)
from repro.graphs.graph import Graph
from tests.reference.perfect import (
    chordless_cycles,
    has_odd_hole,
    is_berge,
    is_perfect_brute,
    max_clique_exact,
)


class TestMaxClique:
    def test_complete(self):
        assert len(max_clique_exact(complete_graph(5))) == 5

    def test_cycle(self):
        assert len(max_clique_exact(cycle_graph(5))) == 2

    def test_empty(self):
        assert len(max_clique_exact(Graph())) == 0

    def test_clique_is_clique(self):
        for seed in range(8):
            g = random_graph(10, 0.5, random.Random(seed))
            clique = max_clique_exact(g)
            assert g.is_clique(clique)

    def test_matches_chordal_computation(self):
        from repro.graphs.chordal import clique_number_chordal

        for seed in range(8):
            g = random_chordal_graph(10, 4, random.Random(seed))
            if len(g):
                assert len(max_clique_exact(g)) == clique_number_chordal(g)


class TestChordlessCycles:
    def test_c5_found(self):
        cycles = list(chordless_cycles(cycle_graph(5)))
        assert len(cycles) == 1
        assert len(cycles[0]) == 5

    def test_chordal_has_none(self):
        for seed in range(5):
            g = random_chordal_graph(9, 3, random.Random(seed))
            assert list(chordless_cycles(g)) == []

    def test_c4_found_at_min_length_4(self):
        assert len(list(chordless_cycles(cycle_graph(4), min_length=4))) == 1

    def test_matches_chordality(self):
        for seed in range(10):
            rng = random.Random(seed)
            g = random_graph(8, rng.uniform(0.2, 0.6), rng)
            assert (
                not list(chordless_cycles(g, min_length=4))
            ) == is_chordal(g), seed


class TestOddHoles:
    def test_c5_is_odd_hole(self):
        assert has_odd_hole(cycle_graph(5))

    def test_c6_is_not(self):
        assert not has_odd_hole(cycle_graph(6))

    def test_c7(self):
        assert has_odd_hole(cycle_graph(7))

    def test_complete_has_none(self):
        assert not has_odd_hole(complete_graph(6))


class TestPerfection:
    def test_chordal_graphs_perfect(self):
        for seed in range(4):
            g = random_chordal_graph(7, 3, random.Random(seed))
            assert is_perfect_brute(g), seed
            assert is_berge(g), seed

    def test_c5_not_perfect(self):
        assert not is_perfect_brute(cycle_graph(5))
        assert not is_berge(cycle_graph(5))

    def test_c6_bipartite_perfect(self):
        assert is_perfect_brute(cycle_graph(6))
        assert is_berge(cycle_graph(6))

    def test_size_guard(self):
        with pytest.raises(ValueError):
            is_perfect_brute(complete_graph(11))


@settings(max_examples=25, deadline=None)
@given(st.integers(min_value=0, max_value=60))
def test_property_strong_perfect_graph_theorem_small(seed):
    """On small random graphs, the literal definition of perfection and
    the Berge characterization must agree (SPGT)."""
    rng = random.Random(seed)
    g = random_graph(rng.randint(2, 7), rng.uniform(0.2, 0.7), rng)
    assert is_perfect_brute(g) == is_berge(g)
