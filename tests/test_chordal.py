"""Tests for the chordal-graph toolkit, including hypothesis properties."""

import random

import pytest
from hypothesis import given, settings, strategies as st

from repro.coalescing.incremental import (
    chordal_incremental_coalescible,
    dense_incremental_coalescible,
)
from repro.analysis.certificates import verify_peo
from repro.graphs.chordal import (
    CliqueTree,
    chordal_coloring,
    clique_number_chordal,
    clique_tree,
    dense_clique_tree,
    is_chordal,
    make_chordal,
    maximal_cliques_chordal,
    maximum_cardinality_search,
    perfect_elimination_ordering,
    simplicial_vertices,
)
from repro.graphs.coloring import verify_coloring
from repro.graphs.dense import DenseGraph
from repro.graphs.generators import (
    complete_graph,
    cycle_graph,
    random_chordal_graph,
    random_graph,
    random_interval_graph,
)
from repro.graphs.graph import Graph
from tests import reference as ref
from tests.reference.perfect import all_maximal_cliques


class TestChordalityKnownGraphs:
    def test_empty(self):
        assert is_chordal(Graph())

    def test_single_vertex(self):
        assert is_chordal(Graph(vertices=["a"]))

    def test_triangle(self):
        assert is_chordal(complete_graph(3))

    def test_complete(self):
        assert is_chordal(complete_graph(6))

    def test_c4_not_chordal(self):
        assert not is_chordal(cycle_graph(4))

    def test_c5_not_chordal(self):
        assert not is_chordal(cycle_graph(5))

    def test_c4_with_chord(self):
        g = cycle_graph(4)
        g.add_edge("c0", "c2")
        assert is_chordal(g)

    def test_tree_is_chordal(self):
        g = Graph(edges=[("a", "b"), ("b", "c"), ("b", "d"), ("d", "e")])
        assert is_chordal(g)

    def test_disconnected(self):
        g = Graph(edges=[("a", "b")])
        g2 = cycle_graph(4)
        for u, v in g2.edges():
            g.add_edge(u, v)
        assert not is_chordal(g)

    def test_interval_graphs_chordal(self):
        for seed in range(5):
            g = random_interval_graph(20, rng=random.Random(seed))
            assert is_chordal(g)


class TestPEO:
    def test_mcs_covers_all(self):
        g = random_chordal_graph(12, 4, seed=0)
        order = maximum_cardinality_search(g)
        assert sorted(map(str, order)) == sorted(map(str, g.vertices))

    def test_peo_of_chordal(self):
        g = random_chordal_graph(15, 4, seed=0)
        order = perfect_elimination_ordering(g)
        assert order is not None
        assert not verify_peo(g, order)

    def test_peo_of_cycle_is_none(self):
        assert perfect_elimination_ordering(cycle_graph(5)) is None

    def test_is_peo_rejects_bad_order(self):
        # eliminating the chord endpoint of a fan first is not a PEO
        g = Graph(edges=[("m", "a"), ("m", "b"), ("m", "c"), ("a", "b"), ("b", "c")])
        assert verify_peo(g, ["m", "a", "b", "c"])

    def test_is_peo_wrong_vertex_set(self):
        g = complete_graph(3)
        assert verify_peo(g, ["k0", "k1"])


class TestSimplicial:
    def test_complete_all_simplicial(self):
        g = complete_graph(4)
        assert len(simplicial_vertices(g)) == 4

    def test_path_endpoints(self):
        g = Graph(edges=[("a", "b"), ("b", "c")])
        assert set(simplicial_vertices(g)) == {"a", "c"}

    def test_cycle_has_none(self):
        assert simplicial_vertices(cycle_graph(5)) == []


class TestMaximalCliques:
    def test_triangle(self):
        cliques = maximal_cliques_chordal(complete_graph(3))
        assert cliques == [frozenset({"k0", "k1", "k2"})]

    def test_path(self):
        g = Graph(edges=[("a", "b"), ("b", "c")])
        cliques = set(maximal_cliques_chordal(g))
        assert cliques == {frozenset({"a", "b"}), frozenset({"b", "c"})}

    def test_isolated_vertex(self):
        g = Graph(vertices=["a"])
        assert maximal_cliques_chordal(g) == [frozenset({"a"})]

    def test_rejects_non_chordal(self):
        with pytest.raises(ValueError):
            maximal_cliques_chordal(cycle_graph(4))

    def test_all_are_cliques_and_maximal(self):
        for seed in range(10):
            g = random_chordal_graph(14, 4, random.Random(seed))
            cliques = maximal_cliques_chordal(g)
            # complete and duplicate-free: exactly the Bron–Kerbosch set
            assert len(set(cliques)) == len(cliques)
            assert set(cliques) == all_maximal_cliques(g)
            for c in cliques:
                assert g.is_clique(c)
                # maximality: no vertex outside adjacent to all of c
                for v in g.vertices:
                    if v not in c:
                        assert not c <= g.neighbors_view(v)
            # every edge is inside some clique
            for u, v in g.edges():
                assert any({u, v} <= c for c in cliques)

    def test_clique_number(self):
        assert clique_number_chordal(complete_graph(5)) == 5
        assert clique_number_chordal(Graph(vertices=["a"])) == 1
        assert clique_number_chordal(Graph()) == 0


class TestCliqueTree:
    def test_verify_on_random(self):
        for seed in range(10):
            g = random_chordal_graph(16, 4, random.Random(seed))
            t = clique_tree(g)
            assert ref.verify_clique_tree(g, t)

    def test_tree_edge_count(self):
        # a connected chordal graph's clique tree is a tree
        g = Graph(edges=[("a", "b"), ("b", "c"), ("c", "d"), ("b", "d")])
        t = clique_tree(g)
        assert len(t.edges) == len(t.cliques) - 1

    def test_path_query(self):
        g = Graph(edges=[("a", "b"), ("b", "c"), ("c", "d")])
        t = clique_tree(g)
        start = next(i for i, c in enumerate(t.cliques) if "a" in c)
        end = next(i for i, c in enumerate(t.cliques) if "d" in c)
        path = t.path(start, end)
        assert path is not None
        assert path[0] == start and path[-1] == end

    def test_path_disconnected(self):
        g = Graph(edges=[("a", "b"), ("c", "d")])
        t = clique_tree(g)
        i = next(i for i, c in enumerate(t.cliques) if "a" in c)
        j = next(i for i, c in enumerate(t.cliques) if "c" in c)
        assert t.path(i, j) is None

    def test_empty_graph(self):
        t = clique_tree(Graph())
        assert t.cliques == []


def tree_weight(tree):
    """Total intersection weight Σ |C_i ∩ C_j| over the tree's edges."""
    return sum(len(tree.cliques[a] & tree.cliques[b]) for a, b in tree.edges)


def assert_clique_tree_matches_reference(g):
    """The O(V+E) tree is a valid clique tree, lists its cliques in the
    order of the reference containment test, spans every component, and
    is a maximum-weight spanning tree like the Kruskal reference."""
    tree = clique_tree(g)
    kruskal = ref.clique_tree(g)
    assert ref.verify_clique_tree(g, tree)
    assert tree.cliques == maximal_cliques_chordal(g)
    assert tree.cliques == ref.maximal_cliques_chordal(g) == kruskal.cliques
    components = sum(1 for _ in g.connected_components())
    assert len(tree.edges) == len(tree.cliques) - components
    assert len({frozenset(e) for e in tree.edges}) == len(tree.edges)
    assert tree_weight(tree) == tree_weight(kruskal)


def _corpus_graphs():
    from repro.frontend import corpus_functions
    from repro.ir.interference import chaitin_interference

    return [
        pytest.param(chaitin_interference(func),
                     id=f"{path.stem}:{func.name}")
        for path, func in corpus_functions()
    ]


class TestCliqueTreeAgainstReference:
    def test_random_chordal_graphs(self):
        for seed in range(60):
            rng = random.Random(seed)
            g = random_chordal_graph(rng.randint(1, 40), rng.randint(1, 8),
                                     rng)
            assert_clique_tree_matches_reference(g)
            assert set(clique_tree(g).cliques) == all_maximal_cliques(g)

    def test_disconnected_and_isolated(self):
        g = Graph(vertices=["z"], edges=[("a", "b"), ("b", "c"), ("a", "c"),
                                         ("c", "d"), ("e", "f")])
        assert_clique_tree_matches_reference(g)

    @pytest.mark.parametrize("g", _corpus_graphs())
    def test_corpus_interference_graphs(self, g):
        assert_clique_tree_matches_reference(g)


class TestChordalColoring:
    def test_uses_omega_colors(self):
        for seed in range(10):
            g = random_chordal_graph(15, 5, random.Random(seed))
            col = chordal_coloring(g)
            assert verify_coloring(g, col)
            w = clique_number_chordal(g)
            assert max(col.values(), default=-1) + 1 == w

    def test_rejects_non_chordal(self):
        with pytest.raises(ValueError):
            chordal_coloring(cycle_graph(5))


class TestMakeChordal:
    def test_output_chordal_and_supergraph(self):
        for seed in range(5):
            g = random_graph(12, 0.25, random.Random(seed))
            f = make_chordal(g)
            assert is_chordal(f)
            for u, v in g.edges():
                assert f.has_edge(u, v)

    def test_chordal_unchanged(self):
        g = random_chordal_graph(12, 3, seed=0)
        f = make_chordal(g)
        assert f.num_edges() == g.num_edges()


@settings(max_examples=40, deadline=None)
@given(st.integers(min_value=0, max_value=20), st.integers(min_value=1, max_value=5))
def test_property_random_chordal_is_chordal(n, w):
    g = random_chordal_graph(n, w, random.Random(n * 31 + w))
    assert is_chordal(g)


@settings(max_examples=40, deadline=None)
@given(st.integers(min_value=2, max_value=18))
def test_property_subgraph_of_chordal_is_chordal(n):
    g = random_chordal_graph(n, 4, random.Random(n))
    keep = [v for i, v in enumerate(g.vertices) if i % 2 == 0]
    assert is_chordal(g.subgraph(keep))


@settings(max_examples=60, deadline=None)
@given(st.integers(min_value=0, max_value=60))
def test_property_chordality_matches_networkx(seed):
    import networkx as nx

    rng = random.Random(seed)
    g = random_graph(rng.randint(2, 16), rng.uniform(0.1, 0.6), rng)
    nxg = nx.Graph()
    nxg.add_nodes_from(g.vertices)
    nxg.add_edges_from(g.edges())
    assert is_chordal(g) == nx.is_chordal(nxg)


# ---------------------------------------------------------------------------
# the one-walk dense clique tree, on merged work graphs too
# ---------------------------------------------------------------------------

def _walk_as_tree(dense):
    """``dense_clique_tree(dense)`` with cliques as name sets, plus the
    dict graph of the live slots."""
    walk = dense_clique_tree(dense)
    assert walk is not None
    cliques = [frozenset(dense.names[i] for i in range(dense.n)
                         if mask >> i & 1) for mask in walk.cliques]
    return walk, CliqueTree(cliques=cliques, edges=list(walk.edges)), \
        dense.to_graph()


class TestDenseCliqueTree:
    def test_non_chordal_is_none(self):
        assert dense_clique_tree(DenseGraph.from_graph(cycle_graph(4))) is None
        for seed in range(40):
            rng = random.Random(seed)
            g = random_graph(rng.randint(2, 14), rng.uniform(0.1, 0.6), rng)
            walk = dense_clique_tree(DenseGraph.from_graph(g))
            peo = list(reversed(ref.maximum_cardinality_search(g)))
            assert (walk is not None) == (verify_peo(g, peo) == [])

    def test_order_is_mcs_and_cliques_are_the_walk(self):
        for seed in range(30):
            rng = random.Random(seed)
            g = random_chordal_graph(rng.randint(1, 30), rng.randint(1, 6),
                                     rng)
            dense = DenseGraph.from_graph(g)
            walk = dense_clique_tree(dense)
            assert [dense.names[i] for i in walk.order] == \
                ref.maximum_cardinality_search(g)
            assert walk.clique_number() == clique_number_chordal(g)
            _, tree, _ = _walk_as_tree(dense)
            assert tree.cliques == ref.maximal_cliques_chordal(g)

    def test_matches_reference_after_chain_merges(self):
        """Run the chordal strategy's merge step — Theorem 5 witness,
        group merged into a fresh last slot — and check every
        intermediate walk against the reference cliques, the subtree
        property and the Kruskal tree's weight."""
        merges = 0
        for seed in range(40):
            rng = random.Random(seed)
            g = random_chordal_graph(rng.randint(4, 28), rng.randint(2, 6),
                                     rng)
            dense = DenseGraph.from_graph(g)
            k = clique_number_chordal(g) + rng.randint(0, 1)
            for _step in range(6):
                walk, tree, h = _walk_as_tree(dense)
                assert tree.cliques == ref.maximal_cliques_chordal(h)
                assert ref.verify_clique_tree(h, tree)
                assert tree_weight(tree) == tree_weight(ref.clique_tree(h))
                assert walk.clique_number() <= k
                live = [i for i in range(dense.n) if dense.alive >> i & 1]
                pairs = [(i, j) for i in live for j in live
                         if i < j and not dense.has_edge(i, j)]
                if not pairs:
                    break
                i, j = rng.choice(pairs)
                witness = dense_incremental_coalescible(dense, walk, i, j, k)
                graph_level = chordal_incremental_coalescible(
                    h, dense.names[i], dense.names[j], k)
                assert graph_level.mergeable == witness.mergeable
                assert graph_level.chain == [dense.names[v]
                                             for v in witness.chain]
                if witness.mergeable:
                    merged = dense.add_vertex(dense.names[i])
                    dense.merge_group([merged, i, *witness.chain, j])
                    merges += 1
        assert merges > 40

    def test_twin_keeps_the_walk_of_a_copy(self):
        """A graph's frozen twin keeps one tree: the tree a fresh walk
        of a mutable copy builds, frozen, shared by the chordality
        checks and the PEO; a non-chordal twin keeps its ``None``."""
        import dataclasses

        graphs = [param.values[0] for param in _corpus_graphs()]
        for seed in range(20):
            rng = random.Random(seed)
            graphs.append(random_chordal_graph(rng.randint(1, 40),
                                               rng.randint(1, 8), rng))
        for g in graphs:
            twin = g.dense()
            tree = dense_clique_tree(twin)
            assert tree == dense_clique_tree(twin.copy())
            assert is_chordal(g) and g.dense() is twin
            assert perfect_elimination_ordering(g) == [
                twin.names[i] for i in reversed(tree.order)]
            assert dense_clique_tree(twin) is tree
            for part in (tree.order, tree.cliques, tree.edges):
                assert isinstance(part, tuple)
            with pytest.raises(TypeError):
                tree.cliques[0] = 0
            with pytest.raises(dataclasses.FrozenInstanceError):
                tree.cliques = ()
        square = cycle_graph(4)
        assert dense_clique_tree(square.dense()) is None
        assert square.dense().kept("clique_tree", lambda _: 1) is None
        assert not is_chordal(square)
        a, _, c, _ = square.vertices
        square.add_edge(a, c)
        assert is_chordal(square)  # a mutator drops the twin and its tree

    def test_sweep_matches_binary_search_walk(self):
        """The one-sweep walk builds the tree the binary-search walk of
        ``tests/reference`` builds — order, cliques and edges — on the
        corpus, on random chordal graphs, on merged work graphs with
        dead slots, and says ``None`` wherever it does on random graphs
        (most of them not chordal)."""
        graphs = [param.values[0] for param in _corpus_graphs()]
        for seed in range(60):
            rng = random.Random(seed)
            graphs.append(random_chordal_graph(rng.randint(1, 40),
                                               rng.randint(1, 8), rng))
        for g in graphs:
            tree = dense_clique_tree(DenseGraph.from_graph(g))
            assert tree is not None
            assert tree == ref.clique_tree_walk(DenseGraph.from_graph(g))
        others = []
        for seed in range(40):
            rng = random.Random(seed)
            merged = DenseGraph.from_graph(random_chordal_graph(
                rng.randint(6, 30), rng.randint(2, 6), rng))
            for i in range(0, merged.n - 1, 3):
                if not merged.has_edge(i, i + 1):
                    merged.merge_in_place(i, i + 1)
            others.append(merged)
            others.append(DenseGraph.from_graph(random_graph(
                rng.randint(2, 24), rng.uniform(0.1, 0.6), rng)))
        rejected = 0
        for d in others:
            tree = dense_clique_tree(d)
            assert tree == ref.clique_tree_walk(d)
            rejected += tree is None
        assert 20 < rejected < len(others) - 20
