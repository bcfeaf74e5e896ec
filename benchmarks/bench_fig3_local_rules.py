"""F3 — Figure 3: "local rules are not enough".

Two reproductions:

* the padded permutation gadget (permutation of n values at
  k = 2(n-1)): Briggs and George coalesce **zero** of the n moves,
  the brute-force test and optimistic coalescing get all n;
* the incremental trap (right of Figure 3): even the brute-force test,
  applied one affinity at a time, coalesces neither of the two moves,
  while coalescing both simultaneously is safe (found by the exact
  search and by optimistic coalescing).
"""

import pytest

from conftest import attach_tracer, emit
from repro.coalescing.conservative import conservative_coalesce
from repro.coalescing.exact import optimal_coalescing
from repro.coalescing.optimistic import optimistic_coalesce
from repro.graphs.generators import (
    incremental_trap_gadget,
    padded_permutation_gadget,
)
from repro.obs import Tracer

SIZES = [3, 4, 5, 6]


def _permutation_row(n: int, tracer):
    k = 2 * (n - 1)
    g = padded_permutation_gadget(n)
    return {
        "n": n,
        "k": k,
        "briggs": conservative_coalesce(
            g, k, test="briggs", tracer=tracer
        ).num_coalesced,
        "george": conservative_coalesce(
            g, k, test="george", tracer=tracer
        ).num_coalesced,
        "brute": conservative_coalesce(
            g, k, test="brute", tracer=tracer
        ).num_coalesced,
        "optimistic": optimistic_coalesce(g, k, tracer=tracer).num_coalesced,
    }


def test_figure3_permutation(benchmark):
    tracer = Tracer()
    rows = [_permutation_row(n, tracer) for n in SIZES]
    g = padded_permutation_gadget(6)
    benchmark(conservative_coalesce, g, 10, "brute")
    attach_tracer(benchmark, tracer)
    emit(
        benchmark,
        "Figure 3: moves coalesced on the permutation gadget (out of n)",
        ["n", "k", "Briggs", "George", "brute force", "optimistic"],
        [
            (r["n"], r["k"], r["briggs"], r["george"], r["brute"], r["optimistic"])
            for r in rows
        ],
    )
    # the paper's phenomenon: local rules refuse everything, global
    # checks coalesce everything
    assert all(r["briggs"] == 0 for r in rows)
    assert all(r["george"] == 0 for r in rows)
    assert all(r["brute"] == r["n"] for r in rows)
    assert all(r["optimistic"] == r["n"] for r in rows)


def test_figure3_incremental_trap(benchmark):
    tracer = Tracer()
    g = incremental_trap_gadget()
    one_at_a_time = conservative_coalesce(
        g, 3, test="brute", tracer=tracer
    ).num_coalesced
    simultaneous = optimal_coalescing(g, 3).num_coalesced
    optimistic = optimistic_coalesce(g, 3, tracer=tracer).num_coalesced
    benchmark(optimistic_coalesce, g, 3)
    attach_tracer(benchmark, tracer)
    emit(
        benchmark,
        "Figure 3 (right): the incremental trap (2 affinities)",
        ["strategy", "coalesced"],
        [
            ("incremental brute-force", one_at_a_time),
            ("exact simultaneous", simultaneous),
            ("optimistic", optimistic),
        ],
    )
    assert one_at_a_time == 0
    assert simultaneous == 2
    assert optimistic == 2
