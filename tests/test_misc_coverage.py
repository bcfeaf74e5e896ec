"""Edge-case tests for paths not covered by the per-module suites."""

import random

import pytest

from repro.allocator import AllocationResult, chaitin_allocate, irc_allocate
from repro.coalescing import (
    CoalescingResult,
    affinities_by_weight,
    empty_coalescing,
)
from repro.graphs.interference import Coalescing, InterferenceGraph
from repro.ir import FunctionBuilder
from repro.ir.cfg import Function
from tests import allocation_errors


class TestCoalescingBase:
    def test_affinities_by_weight_order(self):
        g = InterferenceGraph()
        g.add_affinity("a", "b", 1.0)
        g.add_affinity("c", "d", 5.0)
        g.add_affinity("e", "f", 5.0)
        order = affinities_by_weight(g)
        assert order[0][2] == 5.0
        assert order[-1][2] == 1.0
        # ties broken deterministically by name
        assert (order[0][0], order[0][1]) == ("c", "d")

    def test_empty_coalescing(self):
        g = InterferenceGraph(affinities=[("a", "b")])
        c = empty_coalescing(g)
        assert c.uncoalesced_weight() == 1.0

    def test_result_properties(self):
        g = InterferenceGraph(affinities=[("a", "b"), ("c", "d")])
        c = Coalescing(g)
        c.union("a", "b")
        r = CoalescingResult(graph=g, coalescing=c, strategy="x")
        assert r.num_coalesced == 1
        assert r.coalesced_weight == 1.0
        assert r.residual_weight == 1.0
        assert "x" in r.summary()


class TestAllocationResult:
    def test_residual_moves_counts_register_mismatch(self):
        fb = FunctionBuilder()
        fb.block("entry").const("a").mov("b", "a").mov("c", "b").ret("c", "a")
        f = fb.finish()
        r = AllocationResult(
            function=f,
            assignment={"a": 0, "b": 1, "c": 1},
            k=2,
        )
        # (b, a) differ; (c, b) agree
        assert r.residual_moves == 1

    def test_verify_reports_bad_assignment(self):
        fb = FunctionBuilder()
        fb.block("entry").const("a").const("b").ret("a", "b")
        f = fb.finish()
        bad = AllocationResult(function=f, assignment={"a": 0, "b": 0}, k=2)
        assert [d.code for d in allocation_errors(bad)] == ["ALLOC001"]

    def test_verify_reports_out_of_range(self):
        fb = FunctionBuilder()
        fb.block("entry").const("a").ret("a")
        f = fb.finish()
        bad = AllocationResult(function=f, assignment={"a": 7}, k=2)
        assert [d.code for d in allocation_errors(bad)] == ["ALLOC002"]

    def test_verify_reports_unassigned(self):
        fb = FunctionBuilder()
        fb.block("entry").const("a").const("b").ret("a", "b")
        f = fb.finish()
        bad = AllocationResult(function=f, assignment={}, k=2)
        assert {d.code for d in allocation_errors(bad)} == {"ALLOC003"}


class TestIRCFreezePath:
    def test_freeze_gives_up_move(self):
        # a move that can never be coalesced conservatively at k=2 but
        # whose endpoints are colourable: IRC must freeze, not spill
        g = InterferenceGraph()
        # u and v each with a private high-degree neighbourhood
        for i in range(2):
            g.add_edge("u", f"p{i}")
            g.add_edge("v", f"q{i}")
        g.add_edge("p0", "p1")
        g.add_edge("q0", "q1")
        g.add_affinity("u", "v")
        r = irc_allocate(g, 2)
        # the triangles force spills at k = 2; the move must be frozen
        # (not coalesced, not blocking) and the partial colouring valid
        assert r.coalesced_moves == 0
        assert r.frozen_moves == 1
        colored = set(r.colors) - set(r.spilled)
        for a, b in g.edges():
            if a in colored and b in colored:
                assert r.colors[a] != r.colors[b]

    def test_freeze_on_colorable_instance(self):
        g = InterferenceGraph()
        g.add_edge("u", "a")
        g.add_edge("v", "a")
        g.add_edge("u", "b")
        g.add_edge("v", "b")
        g.add_affinity("u", "v")
        # k = 2: u, v must share the non-a/b colour... a-b not adjacent
        r = irc_allocate(g, 2)
        assert r.success


class TestFunctionStr:
    def test_str_includes_edges_and_phis(self):
        fb = FunctionBuilder()
        fb.block("entry").const("a").branch()
        fb.block("next").phi("x", entry="a").ret("x")
        fb.edge("entry", "next")
        text = str(fb.finish())
        assert "entry:" in text
        assert "-> next" in text
        assert "phi" in text


class TestChaitinUnknownOptions:
    def test_unknown_spill_metric(self):
        fb = FunctionBuilder()
        fb.block("entry").const("a").ret("a")
        with pytest.raises(ValueError):
            chaitin_allocate(fb.finish(), 2, spill_metric="nope")

    def test_unknown_coalesce_test(self):
        fb = FunctionBuilder()
        fb.block("entry").const("a").ret("a")
        with pytest.raises(KeyError):
            chaitin_allocate(fb.finish(), 2, coalesce_test="nope")
