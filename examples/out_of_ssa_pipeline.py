#!/usr/bin/env python3
"""The out-of-SSA story of the paper's introduction, end to end.

A small program is taken through: SSA construction → interference graph
(chordal, Theorem 1) → φ elimination (moves appear) → aggressive
coalescing (moves disappear) — showing where the coalescing problems of
the paper come from in a real compilation pipeline.

Run:  python examples/out_of_ssa_pipeline.py
"""

from repro.coalescing import aggressive_coalesce
from repro.graphs.chordal import clique_number_chordal, is_chordal
from repro.ir import (
    FunctionBuilder,
    chaitin_interference,
    construct_ssa,
    count_moves,
    eliminate_phis,
    maxlive,
    set_frequencies_from_loops,
)


def build_program():
    """max-like loop:

        s = 0; i = 0
        while i < n:
            if a > s: s = a
            i = i + 1
        return s
    """
    fb = FunctionBuilder("maxloop")
    fb.block("entry").const("s").const("i").const("n").const("a")
    fb.block("head").op("cmp", "t", "i", "n").branch("t")
    body = fb.block("body")
    body.op("cmp", "c", "a", "s").branch("c")
    fb.block("update").mov("s", "a")
    fb.block("latch").op("add", "i", "i")
    fb.block("exit").ret("s")
    fb.edges(
        ("entry", "head"),
        ("head", "body"), ("head", "exit"),
        ("body", "update"), ("body", "latch"),
        ("update", "latch"),
        ("latch", "head"),
    )
    return fb.finish()


def main() -> None:
    func = build_program()
    set_frequencies_from_loops(func)
    print("== source program ==")
    print(func)
    print()

    ssa = construct_ssa(func)
    print("== strict SSA form ==")
    print(ssa)
    print()

    graph = chaitin_interference(ssa)
    print("== SSA interference graph (Theorem 1) ==")
    print(f"variables: {len(graph)}, interferences: {graph.num_edges()}")
    print(f"chordal: {is_chordal(graph)}")
    print(f"omega = {clique_number_chordal(graph)}, Maxlive = {maxlive(ssa)}")
    print(f"phi/copy affinities: {graph.num_affinities()} "
          f"(total weight {graph.total_affinity_weight():g})")
    print()

    lowered = eliminate_phis(ssa)
    print("== after phi elimination ==")
    print(f"copy instructions inserted: {count_moves(lowered):g} "
          f"(weighted cost {count_moves(lowered, weighted=True):g})")
    print()

    lowered_graph = chaitin_interference(lowered)
    result = aggressive_coalesce(lowered_graph)
    print("== aggressive coalescing of the inserted copies ==")
    print(result.summary())
    print("residual moves (weight):")
    for u, v, w in result.given_up:
        print(f"  {u} <-> {v}  ({w:g})")
    if not result.given_up:
        print("  none — every copy was removed")


if __name__ == "__main__":
    main()
