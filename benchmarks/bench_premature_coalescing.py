"""E6 — "a too aggressive coalescing can increase the number of spills".

The paper's Section 1 motivation for studying conservative coalescing:
classical out-of-SSA minimizes moves with *no* register constraint
(aggressive coalescing), and committing that result before allocation
can make the program uncolourable with k = Maxlive registers — forcing
spills the uncoalesced program never needed (pointwise pressure never
rises under coalescing; the damage is colourability-side: the quotient
graph's clique number can exceed Maxlive, or chordality is lost).

The bench scans random SSA programs at k = Maxlive and reports how many
of them aggressive φ-web coalescing breaks, against zero for
conservative coalescing (safe by construction).
"""

import pytest

from conftest import emit
from repro.coalescing import aggressive_coalesce, conservative_coalesce
from repro.graphs.chordal import clique_number_chordal, is_chordal
from repro.graphs.greedy import is_greedy_k_colorable
from repro.ir import (
    GeneratorConfig,
    chaitin_interference,
    construct_ssa,
    random_function,
)
from repro.ir.liveness import maxlive

CONFIG = GeneratorConfig(num_vars=8, move_fraction=0.3)
SEEDS = range(220)


def _scan():
    examined = 0
    aggressive_broken = []
    conservative_broken = 0
    for seed in SEEDS:
        ssa = construct_ssa(random_function(seed, CONFIG))
        k = maxlive(ssa)
        if k < 3:
            continue
        examined += 1
        graph = chaitin_interference(ssa, weighted=False)
        quotient = aggressive_coalesce(graph).coalescing.coalesced_graph()
        if not is_greedy_k_colorable(quotient, k):
            chordal = is_chordal(quotient)
            omega = clique_number_chordal(quotient) if chordal else None
            aggressive_broken.append((seed, k, chordal, omega))
        safe = conservative_coalesce(graph, k, test="brute")
        if not is_greedy_k_colorable(
            safe.coalescing.coalesced_graph(), k
        ):
            conservative_broken += 1
    return examined, aggressive_broken, conservative_broken


def test_premature_coalescing_breaks_colorability(benchmark):
    examined, broken, conservative_broken = _scan()
    ssa = construct_ssa(random_function(152, CONFIG))
    graph = chaitin_interference(ssa, weighted=False)
    benchmark(aggressive_coalesce, graph)
    emit(
        benchmark,
        f"E6: programs (k = Maxlive) where committing aggressive "
        f"coalescing forces spills ({examined} examined)",
        ["seed", "k = Maxlive", "quotient chordal", "quotient omega"],
        [(s, k, c, o if o is not None else "-") for s, k, c, o in broken],
    )
    # the paper's claim: such bad situations exist...
    assert len(broken) >= 1
    # ...including cases where the quotient stays chordal but its clique
    # number outgrows Maxlive (spilling is then unavoidable)
    assert any(c and o is not None and o > k for s, k, c, o in broken)
    # and conservative coalescing never creates them
    assert conservative_broken == 0
