"""Unit tests for InterferenceGraph and Coalescing."""

import random
from itertools import combinations

import pytest
from hypothesis import given, settings, strategies as st

from repro.coalescing.base import CoalescingResult
from repro.graphs.dense import DenseGraph
from repro.graphs.interference import (
    Coalescing,
    InterferenceGraph,
    coalescing_from_mapping,
)
from tests import reference as ref
from tests.reference.partition import DictCoalescing


@pytest.fixture
def small():
    g = InterferenceGraph(
        vertices=["a", "b", "c", "d"],
        edges=[("a", "b"), ("c", "d")],
        affinities=[("a", "c"), ("b", "d")],
    )
    return g


class TestAffinities:
    def test_counts(self, small):
        assert small.num_affinities() == 2
        assert small.total_affinity_weight() == 2.0

    def test_weight_accumulates(self, small):
        small.add_affinity("a", "c", 2.5)
        assert small.affinity_weight("a", "c") == 3.5
        assert small.num_affinities() == 2

    def test_weight_symmetric(self, small):
        assert small.affinity_weight("c", "a") == 1.0

    def test_missing_weight_zero(self, small):
        assert small.affinity_weight("a", "d") == 0.0

    def test_self_affinity_rejected(self, small):
        with pytest.raises(ValueError):
            small.add_affinity("a", "a")

    def test_nonpositive_weight_rejected(self, small):
        with pytest.raises(ValueError):
            small.add_affinity("a", "d", 0.0)

    def test_affinity_adds_vertices(self):
        g = InterferenceGraph()
        g.add_affinity("x", "y")
        assert "x" in g and "y" in g

    def test_remove_affinity(self, small):
        small.remove_affinity("a", "c")
        assert not small.has_affinity("a", "c")

    def test_affinity_neighbors(self, small):
        assert small.affinity_neighbors("a") == {"c"}

    def test_coalescable_excludes_interfering(self, small):
        small.add_affinity("a", "b")  # interfering pair: frozen
        pairs = {frozenset((u, v)) for u, v, _ in small.coalescable_affinities()}
        assert frozenset(("a", "b")) not in pairs
        assert frozenset(("a", "c")) in pairs

    def test_remove_vertex_drops_affinities(self, small):
        small.remove_vertex("a")
        assert small.num_affinities() == 1

    def test_copy_independent(self, small):
        c = small.copy()
        c.remove_affinity("a", "c")
        assert small.has_affinity("a", "c")

    def test_subgraph_restricts_affinities(self, small):
        s = small.subgraph(["a", "c"])
        assert s.has_affinity("a", "c")
        assert s.num_affinities() == 1


class TestMergeWithAffinities:
    def test_merge_folds_affinity(self, small):
        small.merge_in_place("a", "c")
        assert small.num_affinities() == 1  # (a,c) consumed; (b,d) remains

    def test_merge_reattaches(self):
        g = InterferenceGraph(affinities=[("a", "b"), ("b", "c")])
        g.merge_in_place("a", "b")
        assert g.has_affinity("a", "c")

    def test_merge_accumulates_parallel_affinities(self):
        g = InterferenceGraph(affinities=[("a", "x"), ("b", "x")])
        g.add_vertex("a")
        g.merge_in_place("a", "b")
        assert g.affinity_weight("a", "x") == 2.0

    def test_merge_keeps_frozen_affinity(self):
        g = InterferenceGraph(edges=[("b", "c")], affinities=[("a", "c")])
        g.merge_in_place("a", "b")
        # affinity a-c now coincides with interference a-c: kept, frozen
        assert g.has_affinity("a", "c")
        assert g.has_edge("a", "c")


class TestCoalescing:
    def test_initial_classes(self, small):
        c = Coalescing(small)
        assert len(c.classes()) == 4
        assert c.uncoalesced_weight() == 2.0

    def test_union_and_find(self, small):
        c = Coalescing(small)
        c.union("a", "c")
        assert c.same_class("a", "c")
        assert not c.same_class("a", "b")

    def test_union_idempotent(self, small):
        c = Coalescing(small)
        c.union("a", "c")
        assert c.union("a", "c")

    def test_union_interfering_rejected(self, small):
        c = Coalescing(small)
        with pytest.raises(ValueError):
            c.union("a", "b")

    def test_union_transitive_conflict(self, small):
        c = Coalescing(small)
        c.union("a", "c")
        # b interferes with a, so class{b} cannot join class{a, c}
        with pytest.raises(ValueError):
            c.union("b", "c")

    def test_can_union(self, small):
        c = Coalescing(small)
        assert c.can_union("a", "c")
        assert not c.can_union("a", "b")

    def test_members(self, small):
        c = Coalescing(small)
        c.union("a", "c")
        assert c.members("a") == frozenset({"a", "c"})

    def test_weights(self, small):
        c = Coalescing(small)
        c.union("a", "c")
        assert c.uncoalesced_weight() == 1.0
        result = CoalescingResult(graph=small, coalescing=c, strategy="x")
        assert result.coalesced_weight == 1.0
        assert result.residual_weight == 1.0

    def test_quotient_graph(self, small):
        c = Coalescing(small)
        c.union("a", "c")
        q = c.coalesced_graph()
        assert len(q) == 3
        rep = c.find("a")
        assert q.has_edge(rep, "b")
        assert q.has_edge(rep, "d")

    def test_quotient_affinity_dropped_when_interfering(self):
        g = InterferenceGraph(
            edges=[("b", "c")], affinities=[("a", "b"), ("a", "c")]
        )
        c = Coalescing(g)
        c.union("a", "b")
        q = c.coalesced_graph()
        rep = c.find("a")
        # the (a, c) affinity now crosses an interference: not represented
        assert q.has_edge(rep, "c")
        assert not q.has_affinity(rep, "c")

    def test_as_mapping(self, small):
        c = Coalescing(small)
        c.union("a", "c")
        m = c.as_mapping()
        assert m["a"] == m["c"]
        assert m["b"] != m["a"]


class TestCoalescingFromMapping:
    def test_valid(self, small):
        c = coalescing_from_mapping(
            small, {"a": 0, "c": 0, "b": 1, "d": 2}
        )
        assert c.same_class("a", "c")
        assert c.uncoalesced_weight() == 1.0

    def test_invalid_raises(self, small):
        with pytest.raises(ValueError):
            coalescing_from_mapping(
                small, {"a": 0, "b": 0, "c": 1, "d": 2}
            )


def _random_coalesced_instance(seed):
    """A random interference graph with affinities (shuffled insertion
    order, mixed str/int vertices, fractional weights) and a random
    valid coalescing of it."""
    rng = random.Random(seed)
    n = rng.randint(1, 14)
    names = [f"v{i}" if i % 3 else i for i in range(n)]
    rng.shuffle(names)
    g = InterferenceGraph(vertices=names)
    p = rng.uniform(0.05, 0.7)
    for u, v in combinations(names, 2):
        if rng.random() < p:
            g.add_edge(u, v)
    for _ in range(rng.randint(0, 2 * n) if n > 1 else 0):
        u, v = rng.sample(names, 2)
        g.add_affinity(u, v, rng.choice((1.0, 0.5, 10.0, 3.25)))
    c = Coalescing(g)
    pairs = list(combinations(names, 2))
    rng.shuffle(pairs)
    for u, v in pairs[:rng.randint(0, len(pairs))]:
        if c.can_union(u, v):
            c.union(u, v)
    return rng, g, c


@settings(max_examples=150, deadline=None)
@given(st.integers(0, 10**6))
def test_coalescing_merges_as_dict_oracle_does(seed):
    """Union by union, the slot-backed ``Coalescing`` accepts and
    refuses what the dict union-find accepts and refuses, interfering
    merges included, and ends with the same representatives, classes
    in the same order, mapping and quotient."""
    rng = random.Random(seed)
    n = rng.randint(1, 14)
    names = [f"v{i}" if i % 3 else i for i in range(n)]
    rng.shuffle(names)
    g = InterferenceGraph(vertices=names)
    p = rng.uniform(0.05, 0.7)
    for u, v in combinations(names, 2):
        if rng.random() < p:
            g.add_edge(u, v)
    for _ in range(rng.randint(0, 2 * n) if n > 1 else 0):
        u, v = rng.sample(names, 2)
        g.add_affinity(u, v, rng.choice((1.0, 0.5, 10.0, 3.25)))
    got, want = Coalescing(g), DictCoalescing(g)
    for _ in range(rng.randint(0, 3 * n)):
        u, v = rng.choice(names), rng.choice(names)
        assert got.can_union(u, v) == want.can_union(u, v)
        try:
            want.union(u, v)
        except ValueError as exc:
            with pytest.raises(ValueError) as raised:
                got.union(u, v)
            assert str(raised.value) == str(exc)
        else:
            assert got.union(u, v)
    assert [got.find(v) for v in names] == [want.find(v) for v in names]
    assert [got.members(v) for v in names] \
        == [want.members(v) for v in names]
    assert got.classes() == want.classes()
    assert got.as_mapping() == want.as_mapping()
    assert list(got.as_mapping()) == list(want.as_mapping())
    assert got.uncoalesced_affinities() == want.uncoalesced_affinities()
    q_got, q_want = got.coalesced_graph(), want.coalesced_graph()
    assert list(q_got.vertices) == list(q_want.vertices)
    assert list(q_got.edges()) == list(q_want.edges())
    assert list(q_got.affinities()) == list(q_want.affinities())


def _assert_dense_interning(graph):
    d = DenseGraph.from_graph(graph)
    assert d.names == list(graph.vertices)
    assert d.index == {v: i for i, v in enumerate(d.names)}
    assert all(d.deg[i] == d.adj[i].bit_count() for i in range(d.n))
    assert d.to_graph() == graph


class TestQuotientAgainstReference:
    """The row-wise quotient equals the per-edge oracle exactly."""

    @settings(max_examples=150, deadline=None)
    @given(st.integers(0, 10_000))
    def test_identical_quotient(self, seed):
        _, g, c = _random_coalesced_instance(seed)
        want, got = ref.coalesced_graph(c), c.coalesced_graph()
        assert list(got.vertices) == list(want.vertices)
        assert got == want
        assert list(got.edges()) == list(want.edges())
        assert list(got.affinities()) == list(want.affinities())
        _assert_dense_interning(g)
        _assert_dense_interning(got)

    @settings(max_examples=100, deadline=None)
    @given(st.integers(0, 10_000))
    def test_invalid_partition_identical_error(self, seed):
        rng, g, c = _random_coalesced_instance(seed)
        inside = [pair for cls in c.classes()
                  for pair in combinations(sorted(cls, key=str), 2)]
        if not inside:
            return
        # interferences added after the unions make the partition invalid
        for u, v in rng.sample(inside, rng.randint(1, len(inside))):
            g.add_edge(u, v)
        with pytest.raises(ValueError) as want:
            ref.coalesced_graph(c)
        with pytest.raises(ValueError) as got:
            c.coalesced_graph()
        assert str(got.value) == str(want.value)
        assert str(got.value).startswith("invalid coalescing: ")
