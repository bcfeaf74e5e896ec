"""Tests for repro.budget and the cooperative hooks in the exact
solvers (coalescing.exact, reductions.sat)."""

import itertools
import random
import time

import pytest

from repro.budget import Budget, BudgetExceeded
from repro.challenge.generator import pressure_instance
from repro.coalescing.exact import optimal_coalescing
from repro.reductions.sat import CNF, is_satisfiable, solve_dpll


class TestBudget:
    def test_step_budget_raises(self):
        budget = Budget(max_steps=10)
        for _ in range(10):
            budget.check()
        with pytest.raises(BudgetExceeded) as exc:
            budget.check()
        assert exc.value.reason == "steps"
        assert exc.value.steps == 11

    def test_deadline_raises(self):
        budget = Budget(max_seconds=0.01)
        time.sleep(0.02)
        with pytest.raises(BudgetExceeded) as exc:
            for _ in range(10_000):
                budget.check()
        assert exc.value.reason == "deadline"

    def test_unlimited_never_raises(self):
        budget = Budget()
        for _ in range(5_000):
            budget.check()
        assert not budget.exhausted()

    def test_exhausted_without_raising(self):
        budget = Budget(max_steps=1)
        assert not budget.exhausted()
        budget.check()
        assert budget.exhausted()
        deadline = Budget(max_seconds=0.005)
        time.sleep(0.01)
        assert deadline.exhausted()

    def test_is_runtime_error(self):
        assert issubclass(BudgetExceeded, RuntimeError)

    def test_validation(self):
        with pytest.raises(ValueError):
            Budget(max_steps=0)
        with pytest.raises(ValueError):
            Budget(max_seconds=-1.0)


class TestFromDeadline:
    def test_builds_time_budget(self):
        budget = Budget.from_deadline(5.0)
        assert budget.max_seconds == 5.0
        assert budget.max_steps is None
        budget.check()  # plenty of time left

    def test_short_deadline_expires(self):
        budget = Budget.from_deadline(0.01)
        time.sleep(0.02)
        with pytest.raises(BudgetExceeded) as exc:
            for _ in range(10_000):
                budget.check()
        assert exc.value.reason == "deadline"

    def test_combines_with_step_cap(self):
        budget = Budget.from_deadline(60.0, max_steps=3)
        for _ in range(3):
            budget.check()
        with pytest.raises(BudgetExceeded) as exc:
            budget.check()
        assert exc.value.reason == "steps"

    @pytest.mark.parametrize("seconds", [0, -1.0, None])
    def test_rejects_non_positive_deadlines(self, seconds):
        with pytest.raises(ValueError):
            Budget.from_deadline(seconds)


class TestBulkCharges:
    """``check(n)`` is n single checks, accounted at once."""

    def test_raises_at_the_same_total_as_single_checks(self):
        rng = random.Random(5)
        for _ in range(200):
            limit = rng.randint(1, 60)
            charges = [rng.randint(0, 9) for _ in range(30)]
            bulk = Budget(max_steps=limit)
            single = Budget(max_steps=limit)
            for n in charges:
                bulk_raised = single_raised = False
                try:
                    bulk.check(n)
                except BudgetExceeded as exc:
                    bulk_raised = True
                    assert exc.reason == "steps"
                for _ in range(n):
                    try:
                        single.check()
                    except BudgetExceeded:
                        single_raised = True
                        break
                assert bulk_raised == single_raised, (limit, charges)
                if bulk_raised:
                    assert bulk.steps > limit >= bulk.steps - n
                    break

    def test_deadline_polled_when_a_charge_crosses_the_clock_mask(self):
        budget = Budget(max_seconds=0.01)
        time.sleep(0.02)
        # 100 and 200 stay below the first multiple of 256: no clock read
        budget.check(100)
        budget.check(100)
        # 300 crosses 256 without landing on it: the clock is read
        with pytest.raises(BudgetExceeded) as exc:
            budget.check(100)
        assert exc.value.reason == "deadline"
        assert exc.value.steps == 300

    def test_context_charges_in_bulk(self):
        from repro.analysis import AnalysisContext

        ctx = AnalysisContext(budget=Budget(max_steps=10))
        ctx.check_budget(4)
        ctx.check_budget()
        assert ctx.budget.steps == 5
        with pytest.raises(BudgetExceeded):
            ctx.check_budget(6)
        AnalysisContext().check_budget(10**9)  # no budget, no limit

    def test_small_verify_budget_on_chacha_mix_allocation(self):
        """A ``VERIFY_MAX_STEPS``-style step budget far below one row
        walk still ends the certificate ``budget_exceeded``."""
        from repro.analysis.engine_check import verify_record
        from repro.engine.tasks import TaskSpec, run_task

        spec = TaskSpec(generator="llvm", seed=0, k=0,
                        strategy="linear-scan",
                        params={"path": "chacha_block.ll",
                                "function": "chacha_mix"})
        record = run_task(spec)
        assert record["status"] == "ok"
        verification = verify_record(spec, record,
                                     budget=Budget(max_steps=500))
        assert verification["status"] == "budget_exceeded"
        assert "BUDGET001" in {d["code"] for d in verification["diagnostics"]}
        assert verify_record(spec, record)["status"] == "certified"


class TestSolverHooks:
    def test_exact_coalescing_budget(self):
        inst = pressure_instance(5, 7, rng=random.Random(3))
        with pytest.raises(BudgetExceeded):
            optimal_coalescing(
                inst.graph, inst.k, budget=Budget(max_steps=5)
            )

    def test_exact_coalescing_generous_budget_matches(self):
        inst = pressure_instance(4, 4, rng=random.Random(1))
        free = optimal_coalescing(inst.graph, inst.k)
        bounded = optimal_coalescing(
            inst.graph, inst.k, budget=Budget(max_steps=10_000_000)
        )
        assert free.residual_weight == bounded.residual_weight

    def test_dpll_budget(self):
        cnf = CNF(num_vars=3)
        for signs in itertools.product((1, -1), repeat=3):
            cnf.add_clause((signs[0] * 1, signs[1] * 2, signs[2] * 3))
        with pytest.raises(BudgetExceeded):
            solve_dpll(cnf, budget=Budget(max_steps=1))
        # a generous budget changes nothing
        assert is_satisfiable(cnf, budget=Budget(max_steps=10_000)) is False
