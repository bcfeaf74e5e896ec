"""E3 — end-to-end allocator comparison (the Section 1 framing).

Chaitin–Briggs (integrated spilling + conservative coalescing) versus
the decoupled two-phase SSA allocator (spill to Maxlive ≤ k, then colour
the chordal graph with a pluggable coalescing strategy) on random
structured programs: spill counts and residual moves side by side,
both counted the same way (copy instructions left in the final code
whose operands got different registers,
``AllocationResult.residual_moves``).
"""

import random

import pytest

from conftest import emit
from repro.allocator import chaitin_allocate, ssa_allocate
from repro.engine.tasks import STRATEGY_TABLE
from repro.ir import GeneratorConfig, construct_ssa, eliminate_phis, random_function

CONFIG = GeneratorConfig(num_vars=10, max_stmts=7, move_fraction=0.3)
SEEDS = list(range(8))
K = 4
BRUTE = STRATEGY_TABLE["brute"].run


def _compare(seed: int):
    f = random_function(seed, CONFIG)
    phi_free = eliminate_phis(construct_ssa(f))
    chaitin = chaitin_allocate(phi_free, K)
    two_phase, stats = ssa_allocate(f, K, BRUTE)
    return {
        "seed": seed,
        "chaitin_spills": len(chaitin.spilled),
        "chaitin_residual": chaitin.residual_moves,
        "ssa_spills": len(two_phase.spilled),
        "ssa_residual": two_phase.residual_moves,
        "maxlive": stats.maxlive_before,
    }


def test_allocator_comparison(benchmark):
    rows = [_compare(seed) for seed in SEEDS]
    f = random_function(SEEDS[0], CONFIG)
    benchmark(ssa_allocate, f, K, BRUTE)
    emit(
        benchmark,
        f"E3: Chaitin-Briggs vs two-phase SSA allocator (k = {K})",
        ["seed", "Maxlive", "Chaitin spills", "Chaitin residual moves",
         "SSA spills", "SSA residual moves"],
        [
            (r["seed"], r["maxlive"], r["chaitin_spills"], r["chaitin_residual"],
             r["ssa_spills"], r["ssa_residual"])
            for r in rows
        ],
    )
    # the decoupled allocator spills only what pressure demands: never
    # more than the integrated allocator in aggregate
    assert sum(r["ssa_spills"] for r in rows) <= sum(
        r["chaitin_spills"] for r in rows
    )
