"""Tests for the Theorem 2 reduction (multiway cut → aggressive
coalescing), including the Figure 1 program construction."""

import random

import pytest

from repro.coalescing.exact import optimal_coalescing
from repro.graphs.graph import Graph
from repro.reductions.aggressive_reduction import (
    build_program,
    coalescing_to_cut,
    cut_to_coalescing,
    program_matches_reduction,
    reduce_multiway_cut,
)
from repro.reductions.multiway_cut import (
    MultiwayCutInstance,
    has_multiway_cut,
    min_multiway_cut,
    random_instance,
    separates,
)


def small_instance():
    """The shape of the paper's Figure 1 example: three terminals and
    internal vertices."""
    g = Graph(
        edges=[
            ("s1", "u"), ("u", "s2"), ("u", "v"), ("v", "s3"), ("v", "w"),
        ]
    )
    return MultiwayCutInstance(graph=g, terminals=("s1", "s2", "s3"))


class TestMultiwayCut:
    def test_separates_trivial(self):
        inst = small_instance()
        all_edges = {frozenset(e) for e in inst.graph.edges()}
        assert separates(inst, all_edges)

    def test_separates_empty_cut(self):
        assert not separates(small_instance(), set())

    def test_min_cut_size(self):
        cut = min_multiway_cut(small_instance())
        assert separates(small_instance(), cut)
        assert len(cut) == 2  # cut around u or v

    def test_decision(self):
        assert has_multiway_cut(small_instance(), 2)
        assert not has_multiway_cut(small_instance(), 1)

    def test_terminals_adjacent(self):
        g = Graph(edges=[("s1", "s2")])
        inst = MultiwayCutInstance(graph=g, terminals=("s1", "s2"))
        cut = min_multiway_cut(inst)
        assert cut == {frozenset(("s1", "s2"))}

    def test_distinct_terminals_required(self):
        g = Graph(vertices=["a"])
        with pytest.raises(ValueError):
            MultiwayCutInstance(graph=g, terminals=("a", "a"))

    def test_terminal_must_exist(self):
        with pytest.raises(ValueError):
            MultiwayCutInstance(graph=Graph(), terminals=("zz",))


class TestReduction:
    def test_interference_is_terminal_clique(self):
        red = reduce_multiway_cut(small_instance())
        g = red.interference
        assert g.has_edge("s1", "s2")
        assert g.has_edge("s2", "s3")
        assert g.has_edge("s1", "s3")
        # nothing else interferes
        assert g.num_edges() == 3

    def test_each_edge_two_affinities(self):
        inst = small_instance()
        red = reduce_multiway_cut(inst)
        assert red.interference.num_affinities() == 2 * inst.graph.num_edges()

    def test_forward_map_bound(self):
        inst = small_instance()
        red = reduce_multiway_cut(inst)
        cut = min_multiway_cut(inst)
        co = cut_to_coalescing(red, cut)
        assert co.uncoalesced_weight() <= len(cut)

    def test_backward_map_separates(self):
        inst = small_instance()
        red = reduce_multiway_cut(inst)
        result = optimal_coalescing(red.interference, 0, "valid")
        cut = coalescing_to_cut(red, result.coalescing)
        assert separates(inst, cut)
        assert len(cut) <= len(result.given_up)

    def test_optimum_equality(self):
        # the reduction preserves the optimum exactly
        for seed in range(10):
            rng = random.Random(seed)
            inst = random_instance(rng.randint(4, 6), 0.45, 3, rng)
            red = reduce_multiway_cut(inst)
            cut = min_multiway_cut(inst)
            result = optimal_coalescing(red.interference, 0, "valid")
            assert len(result.given_up) == len(cut), seed

    def test_two_terminals(self):
        g = Graph(edges=[("s1", "a"), ("a", "s2")])
        inst = MultiwayCutInstance(graph=g, terminals=("s1", "s2"))
        red = reduce_multiway_cut(inst)
        result = optimal_coalescing(red.interference, 0, "valid")
        assert len(result.given_up) == 1


class TestFigure1Program:
    def test_program_strict(self):
        from repro.ir.liveness import check_strict

        func = build_program(small_instance())
        assert check_strict(func) == []

    def test_program_interference_matches(self):
        assert program_matches_reduction(small_instance())

    def test_program_matches_on_random(self):
        for seed in range(8):
            rng = random.Random(seed)
            inst = random_instance(rng.randint(4, 7), 0.4, 3, rng)
            assert program_matches_reduction(inst), seed

    def test_terminal_block_defines_all(self):
        func = build_program(small_instance())
        defk = func.blocks["B"].instrs[0]
        assert set(defk.defs) == {"s1", "s2", "s3"}
