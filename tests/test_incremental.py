"""Tests for incremental conservative coalescing (Theorems 4 & 5).

The centrepiece: the polynomial chordal algorithm of Theorem 5 is
validated against the exact colouring oracle over hundreds of random
chordal instances, including the k > ω slack regime.
"""

import itertools
import random

import pytest
from hypothesis import given, settings, strategies as st

from repro.coalescing import incremental
from repro.coalescing.incremental import (
    chordal_incremental_coalescible,
    chordal_incremental_coloring,
    dense_incremental_coalescible,
    incremental_coalescible_exact,
)
from repro.graphs.chordal import (
    clique_number_chordal,
    clique_tree,
    dense_clique_tree,
)
from repro.graphs.dense import DenseGraph
from repro.graphs.coloring import verify_coloring
from repro.graphs.generators import random_chordal_graph
from repro.graphs.graph import Graph
from tests import reference as ref


def path_graph(*names):
    g = Graph()
    for a, b in zip(names, names[1:]):
        g.add_edge(a, b)
    return g


class TestExactOracle:
    def test_simple_yes(self):
        g = path_graph("x", "a", "y")
        col = incremental_coalescible_exact(g, "x", "y", 2)
        assert col is not None and col["x"] == col["y"]

    def test_simple_no(self):
        g = path_graph("x", "a", "b", "y")
        assert incremental_coalescible_exact(g, "x", "y", 2) is None
        assert incremental_coalescible_exact(g, "x", "y", 3) is not None

    def test_adjacent_never(self):
        g = path_graph("x", "y")
        assert incremental_coalescible_exact(g, "x", "y", 5) is None


class TestChordalAlgorithm:
    def test_adjacent_pair(self):
        g = path_graph("x", "y")
        assert not chordal_incremental_coalescible(g, "x", "y", 3).mergeable

    def test_disconnected_always_yes(self):
        g = Graph(vertices=["x", "y"])
        w = chordal_incremental_coalescible(g, "x", "y", 1)
        assert w.mergeable and w.chain == []

    def test_path_with_slack(self):
        # x-a-b-y: with k=2 impossible, k=3 possible (paper Figure 5 spirit)
        g = path_graph("x", "a", "b", "y")
        assert not chordal_incremental_coalescible(g, "x", "y", 2).mergeable
        assert chordal_incremental_coalescible(g, "x", "y", 3).mergeable

    def test_unknown_vertex(self):
        g = path_graph("x", "a", "y")
        with pytest.raises(KeyError):
            chordal_incremental_coalescible(g, "x", "zzz", 3)

    def test_k_zero(self):
        g = Graph(vertices=["x", "y"])
        assert not chordal_incremental_coalescible(g, "x", "y", 0).mergeable

    def test_omega_exceeds_k(self):
        g = path_graph("x", "y")  # irrelevant edge
        g = Graph(edges=[("a", "b"), ("b", "c"), ("a", "c")])
        g.add_vertex("x")
        g.add_vertex("y")
        assert not chordal_incremental_coalescible(g, "x", "y", 2).mergeable

    def test_interval_cover_with_middle_triangle(self):
        # x-a, triangle {a, b, c}, b-y: the chain must hop through c
        g = Graph(
            edges=[("x", "a"), ("a", "b"), ("b", "y"), ("a", "c"), ("c", "b")]
        )
        assert not chordal_incremental_coalescible(g, "x", "y", 2).mergeable
        w = chordal_incremental_coalescible(g, "x", "y", 3)
        assert w.mergeable
        exact = incremental_coalescible_exact(g, "x", "y", 3)
        assert exact is not None

    def test_witness_coloring_valid(self):
        for seed in range(30):
            rng = random.Random(seed)
            g = random_chordal_graph(rng.randint(4, 12), 3, rng)
            vs = sorted(g.vertices)
            pairs = [
                (a, b)
                for a, b in itertools.combinations(vs, 2)
                if not g.has_edge(a, b)
            ]
            if not pairs:
                continue
            x, y = rng.choice(pairs)
            k = max(1, clique_number_chordal(g))
            col = chordal_incremental_coloring(g, x, y, k)
            if col is not None:
                assert verify_coloring(g, col)
                assert col[x] == col[y]
                assert max(col.values()) + 1 <= k

    def test_coloring_none_when_impossible(self):
        g = path_graph("x", "a", "b", "y")
        assert chordal_incremental_coloring(g, "x", "y", 2) is None


class TestTheorem5AgainstOracle:
    """The headline validation: polynomial algorithm == exact answer."""

    @pytest.mark.parametrize("slack", [0, 1, 2])
    def test_many_random_instances(self, slack):
        trials = 0
        for seed in range(60):
            rng = random.Random(seed * 7 + slack)
            g = random_chordal_graph(rng.randint(4, 12), rng.randint(2, 4), rng)
            if len(g) < 2:
                continue
            w = clique_number_chordal(g)
            k = max(1, w + slack)
            vs = sorted(g.vertices)
            pairs = [
                (a, b)
                for a, b in itertools.combinations(vs, 2)
                if not g.has_edge(a, b)
            ]
            rng.shuffle(pairs)
            for x, y in pairs[:3]:
                trials += 1
                fast = chordal_incremental_coalescible(g, x, y, k).mergeable
                exact = incremental_coalescible_exact(g, x, y, k) is not None
                assert fast == exact, (seed, x, y, k)
        assert trials > 50


@settings(max_examples=40, deadline=None)
@given(st.integers(min_value=0, max_value=1000))
def test_property_theorem5_matches_exact(seed):
    rng = random.Random(seed)
    g = random_chordal_graph(rng.randint(3, 10), rng.randint(2, 4), rng)
    vs = sorted(g.vertices)
    pairs = [
        (a, b)
        for a, b in itertools.combinations(vs, 2)
        if not g.has_edge(a, b)
    ]
    if not pairs:
        return
    x, y = rng.choice(pairs)
    k = max(1, clique_number_chordal(g) + rng.randint(0, 1))
    fast = chordal_incremental_coalescible(g, x, y, k).mergeable
    exact = incremental_coalescible_exact(g, x, y, k) is not None
    assert fast == exact


# ---------------------------------------------------------------------------
# the O(V+E) clique tree against the Kruskal reference tree
# ---------------------------------------------------------------------------

def assert_same_verdicts(monkeypatch, g, pairs):
    """Both trees give the same ``mergeable`` verdicts at k = ω and ω+1."""
    w = clique_number_chordal(g)
    answers = []
    for tree in (clique_tree(g), ref.clique_tree(g)):
        monkeypatch.setattr(incremental, "clique_tree",
                            lambda graph, tree=tree: tree)
        answers.append([
            chordal_incremental_coalescible(g, x, y, k).mergeable
            for k in (w, w + 1) for x, y in pairs
        ])
    assert answers[0] == answers[1]


def non_adjacent_pairs(g):
    return [(a, b) for a, b in itertools.combinations(list(g.vertices), 2)
            if not g.has_edge(a, b)]


class TestCliqueTreeVerdicts:
    def test_random_chordal_every_pair(self, monkeypatch):
        for seed in range(40):
            rng = random.Random(seed)
            g = random_chordal_graph(rng.randint(2, 24), rng.randint(1, 6),
                                     rng)
            assert_same_verdicts(monkeypatch, g, non_adjacent_pairs(g))

    def test_corpus_functions(self, monkeypatch):
        """Every non-adjacent pair of every corpus interference graph,
        except chacha_mix (19k pairs): there, all affinities plus a
        fixed sample of 300 pairs."""
        from repro.frontend import corpus_functions
        from repro.ir.interference import chaitin_interference

        for _path, func in corpus_functions():
            ig = chaitin_interference(func)
            pairs = non_adjacent_pairs(ig)
            if len(pairs) > 1000:
                sample = random.Random(0).sample(pairs, 300)
                pairs = sample + [(u, v) for u, v, _w in ig.affinities()
                                  if not ig.has_edge(u, v)]
            assert_same_verdicts(monkeypatch, ig, pairs)

    def test_chacha_mix_chordal_outcome(self):
        """The ``chordal`` task on chacha_mix at k = Maxlive, as the
        engine runs it.  Witness chains depend on the clique tree's
        shape; this one coalesces 18 affinities."""
        from repro.coalescing.chordal_strategy import (
            chordal_incremental_coalesce,
        )
        from repro.frontend import corpus_functions
        from repro.frontend.corpus import function_instance

        func = next(f for _p, f in corpus_functions()
                    if f.name == "chacha_mix")
        inst = function_instance(func)
        result = chordal_incremental_coalesce(inst.graph, inst.k)
        assert result.num_coalesced == 18
        assert result.coalesced_weight == 171
        assert result.residual_weight == 16


# ---------------------------------------------------------------------------
# the dense Theorem 5 test on merged work graphs, against the exact oracle
# ---------------------------------------------------------------------------

class TestDenseTheorem5:
    def test_every_pair_matches_exact_through_merges(self):
        """Every non-adjacent pair of small random chordal graphs at
        k = ω and ω + 1, re-asked after each witness merge: the dense
        verdict equals the exact colouring oracle's, and a merged
        witness group keeps the graph chordal with ω ≤ k."""
        asked = merges = 0
        for seed in range(30):
            rng = random.Random(seed)
            g = random_chordal_graph(rng.randint(3, 9), rng.randint(2, 4), rng)
            k = clique_number_chordal(g) + seed % 2
            dense = DenseGraph.from_graph(g)
            for _step in range(3):
                tree = dense_clique_tree(dense)
                assert tree is not None and tree.clique_number() <= k
                h = dense.to_graph()
                live = [i for i in range(dense.n) if dense.alive >> i & 1]
                pairs = [(i, j) for i, j in itertools.combinations(live, 2)
                         if not dense.has_edge(i, j)]
                if not pairs:
                    break
                for i, j in pairs:
                    fast = dense_incremental_coalescible(dense, tree, i, j, k)
                    exact = incremental_coalescible_exact(
                        h, dense.names[i], dense.names[j], k)
                    assert fast.mergeable == (exact is not None), (seed, i, j)
                    asked += 1
                mergeable = [
                    (i, j, w) for i, j in pairs
                    for w in [dense_incremental_coalescible(dense, tree, i, j, k)]
                    if w.mergeable
                ]
                if not mergeable:
                    break
                i, j, w = rng.choice(mergeable)
                merged = dense.add_vertex(dense.names[i])
                dense.merge_group([merged, i, *w.chain, j])
                merges += 1
        assert asked > 300 and merges > 20

    def test_interfering_pair_and_empty_palette(self):
        dense = DenseGraph.from_graph(path_graph("x", "a", "y"))
        tree = dense_clique_tree(dense)
        x, a, y = (dense.index[v] for v in "xay")
        assert not dense_incremental_coalescible(dense, tree, x, a, 2).mergeable
        assert not dense_incremental_coalescible(dense, tree, x, y, 0).mergeable
        assert dense_incremental_coalescible(dense, tree, x, y, 2).mergeable
