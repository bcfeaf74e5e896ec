"""Tests for colourability-enhancing node merging (Vegdahl-style)."""

import random

import pytest

from tests.reference.node_merging import (
    merge_to_make_greedy_colorable,
    merging_helps,
)
from repro.graphs.coloring import is_k_colorable
from repro.graphs.generators import (
    complete_graph,
    cycle_graph,
    random_graph,
)
from repro.graphs.greedy import is_greedy_k_colorable
from repro.graphs.interference import InterferenceGraph


def as_ig(graph):
    g = InterferenceGraph()
    for v in graph.vertices:
        g.add_vertex(v)
    for u, v in graph.edges():
        g.add_edge(u, v)
    return g


class TestMergeToColor:
    def test_already_colorable_identity(self):
        g = as_ig(cycle_graph(4))
        result = merge_to_make_greedy_colorable(g, 3)
        assert result is not None
        assert all(len(c) == 1 for c in result.classes())

    def test_even_cycle_at_two(self):
        # C4 is 2-colorable but not greedy-2-colorable; merging the
        # antipodal pair fixes it
        result = merge_to_make_greedy_colorable(as_ig(cycle_graph(4)), 2)
        assert result is not None
        classes = [c for c in result.classes() if len(c) > 1]
        assert len(classes) >= 1

    def test_quotient_greedy_colorable(self):
        result = merge_to_make_greedy_colorable(as_ig(cycle_graph(6)), 2)
        assert result is not None
        assert is_greedy_k_colorable(result.coalesced_graph(), 2)

    def test_odd_cycle_impossible(self):
        # χ(C5) = 3: no merging can reach k = 2
        assert merge_to_make_greedy_colorable(as_ig(cycle_graph(5)), 2) is None

    def test_clique_impossible(self):
        assert merge_to_make_greedy_colorable(as_ig(complete_graph(4)), 3) is None

    def test_merge_limit_respected(self):
        result = merge_to_make_greedy_colorable(
            as_ig(cycle_graph(8)), 2, max_merges=1
        )
        # one merge is not enough for C8 at k=2
        assert result is None

    def test_never_produces_invalid_quotient(self):
        for seed in range(10):
            rng = random.Random(seed)
            g = as_ig(random_graph(10, 0.3, rng))
            k = 3
            result = merge_to_make_greedy_colorable(g, k)
            if result is not None:
                quotient = result.coalesced_graph()  # raises if invalid
                assert is_greedy_k_colorable(quotient, k), seed

    def test_success_implies_kcolorable_quotient(self):
        # any successful merge sequence witnesses k-colorability of the
        # quotient, hence of nothing *less* for the original graph —
        # sanity: quotient is k-colorable exactly
        result = merge_to_make_greedy_colorable(as_ig(cycle_graph(6)), 2)
        assert result is not None
        assert is_k_colorable(result.coalesced_graph(), 2)


class TestMergingHelps:
    def test_colorable_input_false(self):
        assert not merging_helps(cycle_graph(4), 3)

    def test_even_cycles(self):
        for n in (4, 6, 8):
            assert merging_helps(cycle_graph(n), 2), n

    def test_odd_cycles_never(self):
        for n in (5, 7):
            assert not merging_helps(cycle_graph(n), 2), n
