"""Interpreter tests and end-to-end semantic verification of every
program transformation in the library."""

import pytest

from repro.allocator import chaitin_allocate, spill_everywhere
from repro.ir import (
    FunctionBuilder,
    GeneratorConfig,
    construct_ssa,
    eliminate_phis,
    isolate_phis,
    random_function,
)
from repro.ir.interp import (
    Stuck,
    Trace,
    apply_assignment,
    equivalent,
    input_stream,
    run,
)


class TestInterpreterBasics:
    def test_straightline_arithmetic(self):
        fb = FunctionBuilder()
        fb.block("entry").const("a").const("b").op("add", "c", "a", "b").ret("c")
        trace = run(fb.finish(), [10, 20])
        assert trace.observed == [30]
        assert trace.returned

    def test_sub_and_mul(self):
        fb = FunctionBuilder()
        (fb.block("entry")
            .const("a").const("b")
            .op("sub", "d", "a", "b")
            .op("mul", "m", "a", "b")
            .ret("d", "m"))
        trace = run(fb.finish(), [50, 8])
        assert trace.observed == [42, 400]

    def test_mov_copies_value(self):
        fb = FunctionBuilder()
        fb.block("entry").const("a").mov("b", "a").ret("b")
        assert run(fb.finish(), [7]).observed == [7]

    def test_use_observes_midway(self):
        fb = FunctionBuilder()
        fb.block("entry").const("a").use("a").const("b").ret("b")
        assert run(fb.finish(), [1, 2]).observed == [1, 2]

    def test_undefined_variable_stuck(self):
        fb = FunctionBuilder()
        fb.block("entry").op("add", "x", "ghost").ret("x")
        with pytest.raises(Stuck):
            run(fb.finish(), [1])

    def test_stream_exhaustion_stuck(self):
        fb = FunctionBuilder()
        fb.block("entry").const("a").const("b").ret("a")
        with pytest.raises(Stuck):
            run(fb.finish(), [1])

    def test_branch_decision_recorded(self):
        fb = FunctionBuilder()
        fb.block("entry").const("c").branch("c")
        fb.block("left").ret()
        fb.block("right").ret()
        fb.edges(("entry", "left"), ("entry", "right"))
        trace = run(fb.finish(), [4])  # 4 + 0 decisions -> slot 0
        assert trace.decisions == [0]

    def test_phi_parallel_swap(self):
        fb = FunctionBuilder()
        fb.block("entry").const("a0").const("b0").const("n")
        head = fb.block("head")
        head.phi("a", entry="a0", body="b")
        head.phi("b", entry="b0", body="a")
        head.op("cmp", "t", "a", "n").branch("t")
        fb.block("body")
        fb.block("exit").ret("a", "b")
        fb.edges(("entry", "head"), ("head", "body"), ("body", "head"), ("head", "exit"))
        trace = run(fb.finish(), input_stream(0))
        assert trace.returned
        # the swap is visible: the two returned values are the two inputs
        stream = input_stream(0)
        assert set(trace.observed) <= {stream[0], stream[1]}

    def test_fuel_exhaustion_flagged(self):
        fb = FunctionBuilder()
        fb.block("entry")
        fb.block("loop").branch()  # no operand: decision from counter
        fb.edges(("entry", "loop"))
        fb.edges(("loop", "loop"), ("loop", "loop2"))
        fb.block("loop2")
        fb.edges(("loop2", "loop"))
        trace = run(fb.finish(), [], fuel=10)
        assert trace.fuel_exhausted

    def test_loop_terminates_via_decision_mixing(self):
        fb = FunctionBuilder()
        fb.block("entry").const("i")
        fb.block("head").op("cmp", "t", "i").branch("t")
        fb.block("body").op("add", "i", "i")
        fb.block("exit").ret("i")
        fb.edges(("entry", "head"), ("head", "body"), ("body", "head"), ("head", "exit"))
        trace = run(fb.finish(), input_stream(3))
        assert trace.returned


class TestTransformationEquivalence:
    CONFIG = GeneratorConfig(num_vars=8, max_depth=3)

    @pytest.mark.parametrize("seed", range(12))
    def test_ssa_construction(self, seed):
        f = random_function(seed, self.CONFIG)
        assert equivalent(f, construct_ssa(f))

    @pytest.mark.parametrize("seed", range(12))
    def test_phi_elimination_both_schemes(self, seed):
        f = random_function(seed, self.CONFIG)
        ssa = construct_ssa(f)
        assert equivalent(f, eliminate_phis(ssa))
        assert equivalent(f, isolate_phis(ssa))

    @pytest.mark.parametrize("seed", range(12))
    def test_spill_everywhere(self, seed):
        f = random_function(seed, self.CONFIG)
        ssa = construct_ssa(f)
        variables = sorted(ssa.variables())
        victim = variables[len(variables) // 2]
        assert equivalent(f, spill_everywhere(ssa, {victim}))

    @pytest.mark.parametrize("seed", range(8))
    def test_full_chaitin_allocation(self, seed):
        f = random_function(seed, self.CONFIG)
        phi_free = eliminate_phis(construct_ssa(f))
        result = chaitin_allocate(phi_free, 4)
        allocated = apply_assignment(result.function, result.assignment)
        # renaming variables to their registers preserves behaviour:
        # the ultimate check that no two live values share a register
        assert equivalent(f, allocated)

    def test_apply_assignment_rejects_phis(self):
        fb = FunctionBuilder()
        fb.block("entry").const("a")
        fb.block("next").phi("x", entry="a").ret("x")
        fb.edge("entry", "next")
        with pytest.raises(ValueError):
            apply_assignment(fb.finish(), {"a": 0, "x": 0})

    def test_broken_allocation_detected(self):
        # sanity for the methodology: an *invalid* assignment (two
        # interfering variables on one register) must change the trace
        fb = FunctionBuilder()
        fb.block("entry").const("a").const("b").op("add", "c", "a", "b").ret("c", "a")
        f = fb.finish()
        bad = apply_assignment(f, {"a": 0, "b": 0, "c": 1})
        assert not equivalent(f, bad)
