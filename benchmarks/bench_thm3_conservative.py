"""T3/F2 — Theorem 3: graph k-colorability ≡ conservative coalescing
with budget K = 0 (Figure 2).

Regenerates the equivalence over random graphs near the colourability
threshold (both positive and negative instances), including the
cliquefier variant whose optimal quotient is a k-clique (chordal and
greedy-k-colorable).  Times the reduction construction.
"""

import random

import pytest

from conftest import emit
from repro.graphs.chordal import is_chordal
from repro.graphs.coloring import k_coloring_exact
from repro.graphs.greedy import is_greedy_k_colorable
from repro.reductions.conservative_reduction import (
    coloring_to_coalescing,
    reduce_colorability,
    verify_equivalence,
)
from repro.reductions.kcolor import random_hard_instance


def _one(seed: int):
    rng = random.Random(seed)
    k = rng.randint(2, 3)
    g = random_hard_instance(rng.randint(5, 8), k, rng)
    red = reduce_colorability(g, k, cliquefier=True)
    source, target = verify_equivalence(red)
    row = {
        "seed": seed,
        "V": len(g),
        "k": k,
        "colorable": source,
        "target": target,
        "clique_quotient": None,
    }
    if source:
        coloring = k_coloring_exact(g, k)
        quotient = coloring_to_coalescing(red, coloring).coalesced_graph()
        row["clique_quotient"] = (
            is_chordal(quotient)
            and is_greedy_k_colorable(quotient, k)
        )
    return row


def test_theorem3_reproduction(benchmark):
    rows = [_one(seed) for seed in range(12)]
    g = random_hard_instance(30, 3, random.Random(0))
    benchmark(reduce_colorability, g, 3, True)
    emit(
        benchmark,
        "Theorem 3: k-colorability == zero-residual conservative coalescing",
        ["seed", "|V|", "k", "source colorable", "target K=0", "clique quotient ok"],
        [
            (r["seed"], r["V"], r["k"], r["colorable"], r["target"], r["clique_quotient"])
            for r in rows
        ],
    )
    assert all(r["colorable"] == r["target"] for r in rows)
    assert all(r["clique_quotient"] for r in rows if r["colorable"])
    # the sample must exercise both branches
    assert any(r["colorable"] for r in rows)
    assert any(not r["colorable"] for r in rows)
