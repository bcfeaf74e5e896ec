"""Tests for interval-graph recognition and models."""

import random

import pytest

from repro.graphs.generators import (
    complete_graph,
    cycle_graph,
    random_interval_graph,
)
from repro.graphs.graph import Graph
from tests.reference.interval import (
    find_asteroidal_triple,
    interval_model,
    is_asteroidal_triple,
    is_interval_graph,
)


def spider() -> Graph:
    """K1,3 with each edge subdivided: chordal (a tree) but its three
    leaves form an asteroidal triple — the classic non-interval chordal
    graph."""
    g = Graph()
    for leg in ("a", "b", "c"):
        g.add_edge("hub", f"{leg}1")
        g.add_edge(f"{leg}1", f"{leg}2")
    return g


class TestAsteroidalTriples:
    def test_spider_leaves(self):
        g = spider()
        assert is_asteroidal_triple(g, "a2", "b2", "c2")
        assert find_asteroidal_triple(g) is not None

    def test_adjacent_triple_rejected(self):
        g = complete_graph(3)
        assert not is_asteroidal_triple(g, "k0", "k1", "k2")

    def test_path_has_none(self):
        g = Graph(edges=[("a", "b"), ("b", "c"), ("c", "d")])
        assert find_asteroidal_triple(g) is None

    def test_c6_has_triple(self):
        # alternating vertices of C6 form an AT
        g = cycle_graph(6)
        assert is_asteroidal_triple(g, "c0", "c2", "c4")


class TestRecognition:
    def test_random_interval_graphs(self):
        for seed in range(8):
            g = random_interval_graph(14, rng=random.Random(seed))
            assert is_interval_graph(g), seed

    def test_spider_not_interval(self):
        assert not is_interval_graph(spider())

    def test_cycle_not_interval(self):
        assert not is_interval_graph(cycle_graph(4))

    def test_complete_is_interval(self):
        assert is_interval_graph(complete_graph(5))

    def test_empty_and_trivial(self):
        assert is_interval_graph(Graph())
        assert is_interval_graph(Graph(vertices=["a"]))


class TestModel:
    def test_model_matches_graph(self):
        for seed in range(8):
            g = random_interval_graph(12, rng=random.Random(seed))
            model = interval_model(g)
            assert model is not None, seed
            vs = sorted(g.vertices)
            for i, u in enumerate(vs):
                for v in vs[i + 1:]:
                    lu, hu = model[u]
                    lv, hv = model[v]
                    assert (lu <= hv and lv <= hu) == g.has_edge(u, v)

    def test_model_none_for_non_interval(self):
        assert interval_model(spider()) is None
        assert interval_model(cycle_graph(5)) is None

    def test_empty(self):
        assert interval_model(Graph()) == {}
