"""End-to-end tests for both register allocators."""

import random
from pathlib import Path
from unittest import mock

import pytest
from hypothesis import given, settings, strategies as st

from repro.allocator import chaitin, chaitin_allocate, ssa_allocate
from repro.allocator import ssa_allocator
from repro.allocator.spill import is_memory_slot
from repro.allocator.ssa_allocator import spill_to_pressure
from repro.engine.tasks import STRATEGY_TABLE
from repro.frontend import corpus_functions
from repro.frontend.corpus import function_from_path
from repro.graphs.dense import DENSE_TESTS
from repro.ir.builder import FunctionBuilder
from repro.ir.generators import GeneratorConfig, random_function
from repro.ir.liveness import maxlive
from repro.ir.out_of_ssa import eliminate_phis
from repro.ir.parser import parse_functions
from repro.ir.ssa import construct_ssa
from tests import reference as ref
from tests import allocation_errors

GADGETS = Path(__file__).resolve().parents[1] / "examples" / "gadgets.ir"


def phi_free(seed, **kw):
    return eliminate_phis(construct_ssa(random_function(seed, GeneratorConfig(**kw))))


class TestChaitin:
    def test_rejects_k_zero(self):
        fb = FunctionBuilder()
        fb.block("entry").const("a").ret("a")
        with pytest.raises(ValueError):
            chaitin_allocate(fb.finish(), 0)

    def test_trivial_function(self):
        fb = FunctionBuilder()
        fb.block("entry").const("a").mov("b", "a").ret("b")
        res = chaitin_allocate(fb.finish(), 2)
        assert allocation_errors(res) == []
        assert res.spilled == []
        # the move must be coalesced
        assert res.assignment["a"] == res.assignment["b"]
        assert res.residual_moves == 0

    def test_valid_on_random_programs(self):
        for seed in range(15):
            f = phi_free(seed, num_vars=8)
            k = 3 + seed % 4
            res = chaitin_allocate(f, k)
            assert allocation_errors(res) == [], seed

    def test_spills_under_pressure(self):
        # k=2 on an 8-variable program usually forces spilling
        spilled_any = False
        for seed in range(10):
            f = phi_free(seed, num_vars=8, max_stmts=8)
            res = chaitin_allocate(f, 2)
            assert allocation_errors(res) == [], seed
            spilled_any = spilled_any or bool(res.spilled)
        assert spilled_any

    def test_more_registers_fewer_spills(self):
        f = phi_free(3, num_vars=10, max_stmts=8)
        spills = [
            len(chaitin_allocate(f, k).spilled) for k in (2, 4, 8)
        ]
        assert spills[0] >= spills[1] >= spills[2]

    def test_brute_coalescing_at_least_briggs_in_aggregate(self):
        # the whole allocator loop is path-dependent, so the per-decision
        # dominance of the brute-force test only shows up in aggregate
        total_briggs = total_brute = 0
        for seed in range(8):
            f = phi_free(seed, num_vars=8, move_fraction=0.4)
            a = chaitin_allocate(f, 4, coalesce_test="briggs_george")
            b = chaitin_allocate(f, 4, coalesce_test="brute")
            assert allocation_errors(a) == [] and allocation_errors(b) == []
            total_briggs += a.coalesced_moves
            total_brute += b.coalesced_moves
        assert total_brute >= total_briggs


    def test_fails_fast_when_reload_temporaries_exceed_k(self):
        # `ret x1.1, x2.1, x3.1, x4.1` needs four registers at once
        with open(GADGETS) as stream:
            (rotate4,) = [f for f in parse_functions(stream) if f.name == "rotate4"]
        with pytest.raises(RuntimeError, match="cannot be reduced below k"):
            chaitin_allocate(rotate4, 3)


def _outcome(func, k, test, oracle=False):
    """What chaitin_allocate returns (or the error it raises), on the
    DenseGraph round or, with ``oracle``, on the dict round."""
    round_fn = ref.chaitin_color_round if oracle else chaitin._color_round
    try:
        with mock.patch.object(chaitin, "_color_round", round_fn):
            r = chaitin_allocate(func, k, coalesce_test=test)
    except RuntimeError as exc:
        return str(exc)
    return r.assignment, r.spilled, r.coalesced_moves, r.iterations


def _assert_matches_oracle(func, k):
    for test in DENSE_TESTS:
        expected = _outcome(func, k, test, oracle=True)
        assert _outcome(func, k, test) == expected, (func.name, k, test)


class TestChaitinMatchesDictRound:
    """The DenseGraph round gives the dict round's allocation exactly:
    same assignment, spills, coalesced moves and iterations."""

    def test_corpus(self):
        for _, func in corpus_functions():
            lowered = eliminate_phis(func)
            pressure = maxlive(lowered)
            for k in (pressure, pressure - 1):
                if k > 0:
                    _assert_matches_oracle(lowered, k)

    def test_bench_allocators_programs(self):
        config = GeneratorConfig(num_vars=10, max_stmts=7, move_fraction=0.3)
        for seed in range(8):
            func = eliminate_phis(construct_ssa(random_function(seed, config)))
            _assert_matches_oracle(func, 4)

    @settings(max_examples=30, deadline=None)
    @given(st.integers(0, 10_000), st.integers(2, 5))
    def test_random_programs(self, seed, k):
        _assert_matches_oracle(random_function(seed), k)


class TestSpillToPressure:
    def test_reaches_target(self):
        for seed in range(10):
            ssa = construct_ssa(random_function(seed, GeneratorConfig(num_vars=10)))
            k = 3
            lowered, spilled, rounds = spill_to_pressure(ssa, k)
            assert maxlive(lowered, skip=is_memory_slot) <= k, seed

    def test_pressure_matches_set_oracle_every_round(self, monkeypatch):
        """The pressure phase 1 reads, ``maxlive`` with memory slots
        skipped, equals the set-based walk on every function it is asked
        about: each corpus function and generated program, before the
        first spill round and after each one."""
        checked = []

        def compared(func, *args, **kwargs):
            value = maxlive(func, *args, **kwargs)
            assert value == ref.pressure_maxlive(func), func.name
            checked.append(any(map(is_memory_slot, func.variables())))
            return value

        monkeypatch.setattr(ssa_allocator, "maxlive", compared)
        cells = [(construct_ssa(func), k)
                 for _, func in corpus_functions()
                 for k in range(max(2, maxlive(func) - 3), maxlive(func))]
        config = GeneratorConfig(num_vars=10)
        cells += [(construct_ssa(random_function(seed, config)), k)
                  for seed in range(10) for k in (2, 3)]
        for ssa, k in cells:
            try:
                spill_to_pressure(ssa, k)
            except RuntimeError:
                pass  # a k below one instruction's reload temporaries
        assert sum(checked) > 100 and not all(checked)

    def test_no_spill_when_fits(self):
        fb = FunctionBuilder()
        fb.block("entry").const("a").ret("a")
        out, spilled, rounds = spill_to_pressure(fb.finish(), 4)
        assert spilled == [] and rounds == 0

    def test_long_spill_sequence_converges(self):
        # chacha_mix has Maxlive 35: reaching k = 10 takes more than 64
        # rounds, one spilled variable each, and the allocation certifies
        func = function_from_path(
            GADGETS.parent / "llvm" / "chacha_block.ll", "chacha_mix"
        )
        res, stats = ssa_allocate(func, 10, STRATEGY_TABLE["brute"].run)
        assert stats.spill_rounds == len(res.spilled) > 64
        assert allocation_errors(res) == []


class TestSSAAllocator:
    def test_rejects_k_zero(self):
        fb = FunctionBuilder()
        fb.block("entry").const("a").ret("a")
        with pytest.raises(ValueError):
            ssa_allocate(fb.finish(), 0, STRATEGY_TABLE["brute"].run)

    def test_valid_on_random_programs(self):
        for seed in range(12):
            f = random_function(seed, GeneratorConfig(num_vars=8))
            res, stats = ssa_allocate(f, 4, STRATEGY_TABLE["brute"].run)
            assert allocation_errors(res) == [], seed
            assert stats.maxlive_after <= 4
            assert stats.chordal, seed

    @pytest.mark.parametrize(
        "strategy", ["none", "briggs", "george", "briggs_george", "brute",
                     "optimistic", "george_extended", "biased", "chordal",
                     "irc"]
    )
    def test_all_coalescing_strategies(self, strategy):
        f = random_function(4, GeneratorConfig(num_vars=8, move_fraction=0.4))
        coalesce = None if strategy == "none" else STRATEGY_TABLE[strategy].run
        res, stats = ssa_allocate(f, 4, coalesce)
        assert allocation_errors(res) == []

    @pytest.mark.parametrize("k", range(31, 36))
    def test_biased_allocates_from_its_own_coloring(self, k):
        # the quotient of biased colouring's partition need not be
        # greedy-k-colourable (on chacha_mix at k = 31..35 it is not):
        # the allocation must use the biased colouring itself
        func = function_from_path(
            GADGETS.parent / "llvm" / "chacha_block.ll", "chacha_mix"
        )
        res, stats = ssa_allocate(func, k, STRATEGY_TABLE["biased"].run)
        assert stats.coalescing.coloring == res.assignment
        assert allocation_errors(res) == []

    def test_phase2_is_chordal_theorem1(self):
        for seed in range(10):
            f = random_function(seed)
            _, stats = ssa_allocate(f, 3, STRATEGY_TABLE["brute"].run)
            assert stats.chordal, seed

    def test_better_coalescing_fewer_residual_moves(self):
        # brute-force conservative must coalesce at least as much weight
        # as Briggs on the same phase-2 graph
        for seed in range(8):
            f = random_function(seed, GeneratorConfig(num_vars=9, move_fraction=0.4))
            _, s_briggs = ssa_allocate(f, 3, STRATEGY_TABLE["briggs"].run)
            _, s_brute = ssa_allocate(f, 3, STRATEGY_TABLE["brute"].run)
            if s_briggs.coalescing and s_brute.coalescing:
                assert (
                    s_brute.coalescing.residual_weight
                    <= s_briggs.coalescing.residual_weight + 1e-9
                ), seed
