"""Tests for interference-graph construction from IR — including the
paper's Theorem 1 as a machine-checked property."""

import random

import pytest
from hypothesis import given, settings, strategies as st

from repro.graphs.chordal import clique_number_chordal, is_chordal
from repro.ir.builder import FunctionBuilder
from repro.ir.generators import GeneratorConfig, random_function
from repro.ir.interference import (
    chaitin_interference,
    intersection_interference,
    set_frequencies_from_loops,
)
from repro.ir.liveness import maxlive
from repro.ir.ssa import construct_ssa


class TestBasicConstruction:
    def test_simultaneously_live_interfere(self):
        fb = FunctionBuilder()
        fb.block("entry").const("a").const("b").op("add", "c", "a", "b").ret("c")
        g = chaitin_interference(fb.finish())
        assert g.has_edge("a", "b")
        assert not g.has_edge("a", "c")

    def test_disjoint_ranges_free(self):
        fb = FunctionBuilder()
        fb.block("entry").const("a").op("use1", None, "a").const("b").ret("b")
        g = chaitin_interference(fb.finish())
        assert not g.has_edge("a", "b")

    def test_move_with_dying_source_coalescable(self):
        fb = FunctionBuilder()
        fb.block("entry").const("a").mov("b", "a").ret("b")
        g = chaitin_interference(fb.finish())
        assert not g.has_edge("a", "b")
        assert g.has_affinity("a", "b")

    def test_move_with_live_source_frozen(self):
        fb = FunctionBuilder()
        fb.block("entry").const("a").mov("b", "a").ret("a", "b")
        g = chaitin_interference(fb.finish())
        # a survives the copy: they genuinely interfere
        assert g.has_edge("a", "b")
        assert g.has_affinity("a", "b")

    def test_move_affinity_weighted_by_frequency(self):
        fb = FunctionBuilder()
        fb.block("entry").const("a").mov("b", "a").ret("b")
        fb.frequency("entry", 8.0)
        g = chaitin_interference(fb.finish())
        assert g.affinity_weight("a", "b") == 8.0

    def test_move_affinities_disabled(self):
        fb = FunctionBuilder()
        fb.block("entry").const("a").mov("b", "a").ret("b")
        g = chaitin_interference(fb.finish(), move_affinities=False)
        assert g.num_affinities() == 0

    def test_dead_def_interferes_at_point(self):
        fb = FunctionBuilder()
        fb.block("entry").const("a").const("dead").ret("a")
        g = chaitin_interference(fb.finish())
        assert g.has_edge("a", "dead")

    def test_multi_def_instruction_clique(self):
        from repro.ir.instructions import Instr

        fb = FunctionBuilder()
        fb.func.blocks["entry"].instrs.append(Instr("pair", ("p", "q"), ()))
        fb.block("entry").ret("p")
        g = chaitin_interference(fb.finish())
        assert g.has_edge("p", "q")

    def test_phi_affinities(self):
        fb = FunctionBuilder()
        fb.block("entry").const("a").const("c").branch("c")
        fb.block("l").const("b")
        fb.block("j").phi("x", entry="b", l="b")
        fb.block("j2")
        fb.edges(("entry", "l"), ("entry", "j"), ("l", "j"))
        # simpler: one-pred φ
        fb2 = FunctionBuilder()
        fb2.block("entry").const("a")
        fb2.block("next").phi("x", entry="a").ret("x")
        fb2.edge("entry", "next")
        g = chaitin_interference(fb2.finish())
        assert g.has_affinity("x", "a")
        assert not g.has_edge("x", "a")

    def test_phi_targets_interfere_in_parallel(self):
        fb = FunctionBuilder()
        fb.block("entry").const("a").const("b")
        nxt = fb.block("next")
        nxt.phi("x", entry="a").phi("y", entry="b")
        nxt.ret("x", "y")
        fb.edge("entry", "next")
        g = chaitin_interference(fb.finish())
        assert g.has_edge("x", "y")

    def test_all_variables_are_vertices(self):
        f = random_function(5)
        g = chaitin_interference(f)
        assert set(g.vertices) == f.variables()


class TestFrequencies:
    def test_loop_weighting(self):
        fb = FunctionBuilder()
        fb.block("entry").const("i")
        fb.block("head").op("cmp", "t", "i").branch("t")
        fb.block("body").op("add", "i", "i")
        fb.block("exit").ret("i")
        fb.edges(("entry", "head"), ("head", "body"), ("body", "head"), ("head", "exit"))
        f = fb.finish()
        set_frequencies_from_loops(f)
        assert f.block_frequency("body") == 10.0
        assert f.block_frequency("entry") == 1.0


class TestTheorem1:
    """Strict SSA ⇒ chordal interference graph with ω = Maxlive."""

    def test_on_random_programs(self):
        for seed in range(40):
            ssa = construct_ssa(random_function(seed))
            g = chaitin_interference(ssa)
            assert is_chordal(g), seed
            if len(g):
                assert clique_number_chordal(g) == maxlive(ssa), seed

    def test_non_ssa_can_be_non_chordal(self):
        # a 4-cycle interference pattern from a non-SSA program
        fb = FunctionBuilder()
        fb.block("entry").const("c").branch("c")
        fb.block("p1").const("a").const("b").use("a", "b").const("x")
        fb.block("p2").const("x2")
        fb.block("q").use("x")
        fb.edges(("entry", "p1"), ("entry", "p2"), ("p1", "q"), ("p2", "q"))
        # hand-crafted cases need not be chordal; just check the builder
        # accepts non-SSA code
        g = chaitin_interference(fb.finish())
        assert len(g) >= 4


class TestInterferenceDefinitions:
    def test_chaitin_equals_intersection_on_strict(self):
        for seed in range(25):
            ssa = construct_ssa(random_function(seed))
            a = chaitin_interference(ssa)
            b = intersection_interference(ssa)
            ea = {frozenset(e) for e in a.edges()}
            eb = {frozenset(e) for e in b.edges()}
            assert ea == eb, seed


@settings(max_examples=30, deadline=None)
@given(st.integers(min_value=0, max_value=400))
def test_property_ssa_interference_chordal(seed):
    config = GeneratorConfig(
        max_depth=2 + seed % 2,
        num_vars=4 + seed % 6,
        move_fraction=0.1 + (seed % 5) / 10.0,
    )
    ssa = construct_ssa(random_function(seed, config))
    g = chaitin_interference(ssa)
    assert is_chordal(g)
    if len(g):
        assert clique_number_chordal(g) == maxlive(ssa)
