#!/usr/bin/env python3
"""Quickstart: interference graphs, affinities, and the four coalescing
strategies of the paper on one small example.

Run:  python examples/quickstart.py
"""

from repro.coalescing import (
    aggressive_coalesce,
    conservative_coalesce,
    optimal_coalescing,
    optimistic_coalesce,
)
from repro.graphs import InterferenceGraph
from repro.graphs.greedy import is_greedy_k_colorable


def build_example() -> InterferenceGraph:
    """A small allocation problem with k = 3 registers.

    Variables a..f; a/b/c are simultaneously live (a triangle), d is a
    copy of a, e a copy of b, f a copy of d made on a path where c is
    still live.
    """
    g = InterferenceGraph()
    # interferences
    g.add_edge("a", "b")
    g.add_edge("b", "c")
    g.add_edge("a", "c")
    g.add_edge("d", "c")      # d is born while c lives
    g.add_edge("e", "c")
    g.add_edge("f", "c")
    g.add_edge("d", "e")
    # affinities (move instructions), weighted by execution frequency
    g.add_affinity("a", "d", weight=10.0)   # in a loop
    g.add_affinity("b", "e", weight=1.0)
    g.add_affinity("d", "f", weight=1.0)
    return g


def main() -> None:
    k = 3
    graph = build_example()
    print(f"instance: {graph}, k = {k}")
    print(f"greedy-{k}-colorable: {is_greedy_k_colorable(graph, k)}")
    print()

    print("-- aggressive (ignores colourability) --")
    result = aggressive_coalesce(graph)
    print(result.summary())
    quotient = result.coalesced_graph()
    print(f"quotient greedy-{k}-colorable: {is_greedy_k_colorable(quotient, k)}")
    print()

    for test in ("briggs", "george", "brute"):
        print(f"-- conservative ({test}) --")
        result = conservative_coalesce(graph, k, test=test)
        print(result.summary())
        print()

    print("-- optimistic (aggressive + de-coalescing) --")
    result = optimistic_coalesce(graph, k)
    print(result.summary())
    print()

    print("-- exact optimum (branch and bound) --")
    result = optimal_coalescing(graph, k)
    print(result.summary())
    for u, v, w in result.coalesced:
        print(f"  coalesced ({u}, {v}) saving weight {w:g}")
    for u, v, w in result.given_up:
        print(f"  residual move ({u}, {v}) costing weight {w:g}")
    print()

    hard_case()


def hard_case() -> None:
    """Where the strategies differ: the paper's Figure 3 permutation.

    A parallel permutation of 4 values at k = 6: all four moves are
    simultaneously coalescable, but each single merge creates a
    degree-6 vertex whose neighbours all have degree >= 6 — the local
    Briggs/George rules refuse every move.
    """
    from repro.graphs.generators import padded_permutation_gadget

    k = 6
    graph = padded_permutation_gadget(4)
    print(f"Figure 3 gadget: {graph}, k = {k}")
    for test in ("briggs", "george", "brute"):
        result = conservative_coalesce(graph, k, test=test)
        print(f"  conservative ({test:7}): {result.num_coalesced}/4 moves coalesced")
    result = optimistic_coalesce(graph, k)
    print(f"  optimistic          : {result.num_coalesced}/4 moves coalesced")


if __name__ == "__main__":
    main()
