"""Tests for aggressive coalescing (Section 3)."""

import random

import pytest

from repro.coalescing.aggressive import aggressive_coalesce
from repro.coalescing.exact import optimal_coalescing
from repro.graphs.generators import permutation_gadget
from repro.graphs.interference import InterferenceGraph


def chain_graph():
    """a -aff- b -aff- c with an interference (a, c): only one of the
    two affinities can be coalesced."""
    return InterferenceGraph(
        edges=[("a", "c")], affinities=[("a", "b"), ("b", "c")]
    )


class TestGreedy:
    def test_disjoint_all_coalesced(self):
        g = InterferenceGraph(affinities=[("a", "b"), ("c", "d")])
        r = aggressive_coalesce(g)
        assert r.num_coalesced == 2
        assert r.residual_weight == 0.0

    def test_conflict_chain(self):
        r = aggressive_coalesce(chain_graph())
        assert r.num_coalesced == 1
        assert r.residual_weight == 1.0

    def test_weights_guide_order(self):
        g = InterferenceGraph(edges=[("a", "c")])
        g.add_affinity("a", "b", 1.0)
        g.add_affinity("b", "c", 5.0)
        r = aggressive_coalesce(g)
        # the heavy affinity must win
        assert r.coalescing.same_class("b", "c")
        assert not r.coalescing.same_class("a", "b")

    def test_quotient_valid(self):
        for seed in range(10):
            rng = random.Random(seed)
            g = InterferenceGraph()
            names = [f"v{i}" for i in range(12)]
            for i, u in enumerate(names):
                g.add_vertex(u)
                for v in names[:i]:
                    if rng.random() < 0.25:
                        g.add_edge(u, v)
            for _ in range(8):
                u, v = rng.sample(names, 2)
                if u != v and not g.has_affinity(u, v):
                    g.add_affinity(u, v)
            r = aggressive_coalesce(g)
            q = r.coalesced_graph()  # raises if any class has an edge inside
            assert len(q) <= len(g)

    def test_transitively_coalesced_counted(self):
        g = InterferenceGraph(
            affinities=[("a", "b"), ("b", "c"), ("a", "c")]
        )
        r = aggressive_coalesce(g)
        assert r.num_coalesced == 3

    def test_permutation_gadget_full(self):
        g = permutation_gadget(4)
        r = aggressive_coalesce(g)
        assert r.num_coalesced == 4
        assert len(r.coalesced_graph()) == 4  # K4

    def test_summary_text(self):
        r = aggressive_coalesce(chain_graph())
        assert "aggressive" in r.summary()


class TestExact:
    def test_matches_greedy_on_easy(self):
        g = InterferenceGraph(affinities=[("a", "b"), ("c", "d")])
        assert optimal_coalescing(g, 0, "valid").residual_weight == 0.0

    def test_beats_greedy_when_order_matters(self):
        # greedy (by weight, ties by name) may pick (a,b) then lose both
        # (b,c) and (c,d)... construct: coalescing (a,b) blocks two others
        g = InterferenceGraph(edges=[("a", "c"), ("a", "d")])
        g.add_affinity("a", "b", 1.5)
        g.add_affinity("b", "c", 1.0)
        g.add_affinity("b", "d", 1.0)
        greedy = aggressive_coalesce(g)
        exact = optimal_coalescing(g, 0, "valid")
        assert greedy.residual_weight == 2.0
        assert exact.residual_weight == 1.5
        assert exact.coalescing.same_class("b", "c")
        assert exact.coalescing.same_class("b", "d")

    def test_exact_at_most_greedy(self):
        for seed in range(10):
            rng = random.Random(100 + seed)
            g = InterferenceGraph()
            names = [f"v{i}" for i in range(8)]
            for i, u in enumerate(names):
                g.add_vertex(u)
                for v in names[:i]:
                    if rng.random() < 0.3:
                        g.add_edge(u, v)
            for _ in range(6):
                u, v = rng.sample(names, 2)
                if not g.has_affinity(u, v):
                    g.add_affinity(u, v, rng.choice([1.0, 2.0]))
            greedy = aggressive_coalesce(g)
            exact = optimal_coalescing(g, 0, "valid")
            assert exact.residual_weight <= greedy.residual_weight + 1e-9

    def test_node_limit(self):
        g = InterferenceGraph(
            affinities=[(f"a{i}", f"b{i}") for i in range(10)]
        )
        with pytest.raises(RuntimeError):
            optimal_coalescing(g, 0, "valid", node_limit=3)
