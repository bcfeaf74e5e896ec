"""Cross-module integration tests: full pipelines from program text to
allocated registers, exercising every layer together."""

import random

import pytest

from repro.allocator import chaitin_allocate, ssa_allocate
from repro.engine.tasks import STRATEGY_TABLE
from repro.coalescing import (
    aggressive_coalesce,
    conservative_coalesce,
    optimistic_coalesce,
)
from repro.graphs.chordal import is_chordal
from repro.graphs.greedy import is_greedy_k_colorable
from repro.ir import (
    FunctionBuilder,
    GeneratorConfig,
    chaitin_interference,
    construct_ssa,
    count_moves,
    eliminate_phis,
    maxlive,
    random_function,
)
from tests import allocation_errors


def swap_loop():
    """A loop that swaps two values each iteration — the classic worst
    case for out-of-SSA copies (permutation φs)."""
    fb = FunctionBuilder()
    fb.block("entry").const("a0").const("b0").const("n")
    head = fb.block("head")
    head.phi("a", entry="a0", body="b")
    head.phi("b", entry="b0", body="a")
    head.op("cmp", "t", "a", "n").branch("t")
    fb.block("body")
    fb.block("exit").ret("a", "b")
    fb.edges(("entry", "head"), ("head", "body"), ("body", "head"), ("head", "exit"))
    return fb.finish()


class TestSwapLoopPipeline:
    def test_out_of_ssa_inserts_cycle_copies(self):
        out = eliminate_phis(swap_loop())
        assert count_moves(out) >= 3  # swap needs a temp

    def test_coalescing_cannot_remove_swap(self):
        # a and b interfere (both live through the loop); the φ web
        # cannot fully collapse
        out = eliminate_phis(swap_loop())
        g = chaitin_interference(out)
        result = aggressive_coalesce(g)
        assert result.residual_weight > 0

    def test_allocation_succeeds(self):
        out = eliminate_phis(swap_loop())
        res = chaitin_allocate(out, 4)
        assert allocation_errors(res) == []
        assert res.spilled == []


class TestOutOfSSAThenCoalesce:
    """The Section 1 story: φ elimination creates moves; coalescing on
    the interference graph removes most of them."""

    def test_moves_mostly_coalesced(self):
        total_moves = 0
        residual = 0
        for seed in range(10):
            ssa = construct_ssa(random_function(seed, GeneratorConfig(num_vars=6)))
            lowered = eliminate_phis(ssa)
            g = chaitin_interference(lowered)
            result = aggressive_coalesce(g)
            total_moves += g.num_affinities()
            residual += len(result.given_up)
        assert total_moves > 0
        # out-of-SSA copies are overwhelmingly coalescable
        assert residual <= total_moves * 0.2


class TestTwoPhaseStory:
    """Spill to Maxlive <= k, colour the chordal graph, coalesce."""

    def test_phase2_graph_properties(self):
        for seed in range(6):
            f = random_function(seed, GeneratorConfig(num_vars=10))
            res, stats = ssa_allocate(f, 4, STRATEGY_TABLE["brute"].run)
            assert stats.chordal
            assert stats.maxlive_after <= 4
            assert allocation_errors(res) == []

    def test_high_pressure_still_allocates(self):
        for seed in range(4):
            f = random_function(seed, GeneratorConfig(num_vars=14, max_stmts=8))
            res, stats = ssa_allocate(f, 3, STRATEGY_TABLE["brute"].run)
            assert allocation_errors(res) == [], seed


class TestStrategyDominance:
    """The qualitative E1 claim on generated tight instances."""

    def test_ordering_on_pressure_instances(self):
        from repro.challenge.generator import pressure_instance

        agg_w = briggs_w = brute_w = opt_w = 0.0
        for seed in range(6):
            inst = pressure_instance(5, 8, margin=0, rng=random.Random(seed))
            agg_w += aggressive_coalesce(inst.graph).residual_weight
            briggs_w += conservative_coalesce(
                inst.graph, inst.k, test="briggs"
            ).residual_weight
            brute_w += conservative_coalesce(
                inst.graph, inst.k, test="brute"
            ).residual_weight
            opt_w += optimistic_coalesce(inst.graph, inst.k).residual_weight
        # aggressive ignores colourability: a lower bound for everyone
        assert agg_w <= brute_w + 1e-9
        assert agg_w <= opt_w + 1e-9
        # brute-force conservative dominates Briggs in aggregate
        assert brute_w <= briggs_w + 1e-9

    def test_conservative_never_spills(self):
        from repro.challenge.generator import pressure_instance

        for seed in range(6):
            inst = pressure_instance(4, 6, margin=0, rng=random.Random(seed))
            for test in ("briggs", "george", "briggs_george", "brute"):
                r = conservative_coalesce(inst.graph, inst.k, test=test)
                assert is_greedy_k_colorable(r.coalesced_graph(), inst.k)


class TestAllocatorComparison:
    def test_both_allocators_agree_on_feasibility(self):
        for seed in range(5):
            f = random_function(seed, GeneratorConfig(num_vars=8))
            phi_free = eliminate_phis(construct_ssa(f))
            k = 4
            chaitin = chaitin_allocate(phi_free, k)
            two_phase, _ = ssa_allocate(f, k, STRATEGY_TABLE["brute"].run)
            assert allocation_errors(chaitin) == []
            assert allocation_errors(two_phase) == []
