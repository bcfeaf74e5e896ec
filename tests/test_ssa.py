"""Tests for SSA construction, checked by the ``ssa-invariants`` pass."""

import pytest

from repro.ir.builder import FunctionBuilder
from repro.ir.generators import GeneratorConfig, random_function
from repro.ir.liveness import check_strict
from repro.ir.ssa import construct_ssa
from tests import ssa_findings


def diamond_redef():
    fb = FunctionBuilder()
    fb.block("entry").const("x").const("c").branch("c")
    fb.block("then").op("add", "x", "x")
    fb.block("else").op("mul", "x", "x")
    fb.block("join").ret("x")
    fb.edges(("entry", "then"), ("entry", "else"), ("then", "join"), ("else", "join"))
    return fb.finish()


def loop_counter():
    fb = FunctionBuilder()
    fb.block("entry").const("i").const("n")
    fb.block("head").op("cmp", "t", "i", "n").branch("t")
    fb.block("body").op("add", "i", "i")
    fb.block("exit").ret("i")
    fb.edges(("entry", "head"), ("head", "body"), ("body", "head"), ("head", "exit"))
    return fb.finish()


class TestConstruction:
    def test_diamond_gets_phi(self):
        ssa = construct_ssa(diamond_redef())
        assert len(ssa.blocks["join"].phis) == 1
        assert ssa_findings(ssa) == []

    def test_loop_gets_phi_at_header(self):
        ssa = construct_ssa(loop_counter())
        assert len(ssa.blocks["head"].phis) == 1
        assert ssa_findings(ssa) == []

    def test_single_def_no_phi(self):
        fb = FunctionBuilder()
        fb.block("entry").const("x").const("c").branch("c")
        fb.block("then").op("use1", None, "x")
        fb.block("else").op("use2", None, "x")
        fb.block("join").ret("x")
        fb.edges(("entry", "then"), ("entry", "else"), ("then", "join"), ("else", "join"))
        ssa = construct_ssa(fb.finish())
        assert not any(b.phis for b in ssa.blocks.values())

    def test_pruned_no_phi_for_dead_variable(self):
        # x redefined on both branches but never used after the join
        fb = FunctionBuilder()
        fb.block("entry").const("x").const("c").branch("c")
        fb.block("then").op("add", "x", "x").op("use1", None, "x")
        fb.block("else").op("mul", "x", "x").op("use2", None, "x")
        fb.block("join").ret("c")
        fb.edges(("entry", "then"), ("entry", "else"), ("then", "join"), ("else", "join"))
        ssa = construct_ssa(fb.finish())
        assert ssa.blocks["join"].phis == []

    def test_original_untouched(self):
        f = diamond_redef()
        before = str(f)
        construct_ssa(f)
        assert str(f) == before

    def test_moves_preserved(self):
        fb = FunctionBuilder()
        fb.block("entry").const("a").mov("b", "a").ret("b")
        ssa = construct_ssa(fb.finish())
        assert len(list(ssa.moves())) == 1

    def test_random_programs(self):
        for seed in range(30):
            f = random_function(seed, GeneratorConfig(num_vars=6))
            assert check_strict(f) == []
            ssa = construct_ssa(f)
            assert ssa_findings(ssa) == [], seed
            assert check_strict(ssa) == [], seed


class TestVerify:
    def test_double_definition(self):
        fb = FunctionBuilder()
        fb.block("entry").const("x").const("x").ret("x")
        assert ssa_findings(fb.finish()) == [("SSA001", "entry:1")]

    def test_use_not_dominated(self):
        fb = FunctionBuilder()
        fb.block("entry").const("c").branch("c")
        fb.block("then").const("x")
        fb.block("join").ret("x")
        fb.edges(("entry", "then"), ("entry", "join"), ("then", "join"))
        assert ssa_findings(fb.finish()) == [("SSA002", "join:0")]

    def test_phi_arg_checked_at_pred_end(self):
        fb = FunctionBuilder()
        fb.block("entry").const("a").const("c").branch("c")
        fb.block("left").const("b")
        fb.block("join").phi("x", entry="b", left="b").ret("x")
        fb.edges(("entry", "left"), ("entry", "join"), ("left", "join"))
        # b does not dominate the end of entry
        assert ssa_findings(fb.finish()) == [("SSA003", "join")]

    def test_same_block_order(self):
        fb = FunctionBuilder()
        fb.block("entry").op("add", "y", "x").const("x").ret("y")
        assert ssa_findings(fb.finish()) == [("SSA002", "entry:0")]

    def test_use_never_defined(self):
        fb = FunctionBuilder()
        fb.block("entry").op("add", "y", "x").ret("y")
        assert ssa_findings(fb.finish()) == [("SSA004", "entry:0")]
