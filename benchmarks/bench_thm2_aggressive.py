"""T2/F1 — Theorem 2: multiway cut ≡ aggressive coalescing (Figure 1).

Regenerates the equivalence on random multiway-cut instances — exact
minimum cut versus exact optimum aggressive coalescing must coincide —
and verifies the Figure 1 program construction produces exactly the
reduction's interference graph.  Times the greedy aggressive heuristic
on a larger instance.
"""

import random

import pytest

from conftest import emit
from repro.coalescing.aggressive import aggressive_coalesce
from repro.coalescing.exact import optimal_coalescing
from repro.reductions.aggressive_reduction import (
    program_matches_reduction,
    reduce_multiway_cut,
)
from repro.reductions.multiway_cut import min_multiway_cut, random_instance


def _one(seed: int):
    rng = random.Random(seed)
    inst = random_instance(rng.randint(4, 7), 0.4, 3, rng)
    red = reduce_multiway_cut(inst)
    cut = min_multiway_cut(inst)
    exact = optimal_coalescing(red.interference, 0, "valid")
    greedy = aggressive_coalesce(red.interference)
    return {
        "seed": seed,
        "V": len(inst.graph),
        "E": inst.graph.num_edges(),
        "min_cut": len(cut),
        "exact_residual": len(exact.given_up),
        "greedy_residual": len(greedy.given_up),
        "figure1_program_ok": program_matches_reduction(inst),
    }


def test_theorem2_reproduction(benchmark):
    rows = [_one(seed) for seed in range(8)]
    big = reduce_multiway_cut(random_instance(40, 0.15, 3, random.Random(0)))
    benchmark(aggressive_coalesce, big.interference)
    emit(
        benchmark,
        "Theorem 2: min multiway cut == optimal aggressive coalescing residual",
        ["seed", "|V|", "|E|", "min cut", "exact K", "greedy K", "Fig.1 program matches"],
        [
            (r["seed"], r["V"], r["E"], r["min_cut"], r["exact_residual"],
             r["greedy_residual"], r["figure1_program_ok"])
            for r in rows
        ],
    )
    assert all(r["min_cut"] == r["exact_residual"] for r in rows)
    assert all(r["greedy_residual"] >= r["exact_residual"] for r in rows)
    assert all(r["figure1_program_ok"] for r in rows)
