#!/usr/bin/env python3
"""A guided tour of the paper's four NP-completeness reductions, each
executed on a concrete instance with its certificate maps.

Run:  python examples/np_reduction_tour.py
"""

import itertools
import random

from repro.coalescing import (
    decoalesce_minimum,
    incremental_coalescible_exact,
    optimal_coalescing,
)
from repro.graphs.graph import Graph
from repro.reductions import (
    CNF,
    MultiwayCutInstance,
    build_program,
    decide_via_coalescing,
    is_satisfiable,
    min_multiway_cut,
    min_vertex_cover,
    reduce_3sat,
    reduce_colorability,
    reduce_multiway_cut,
    reduce_vertex_cover,
    verify_equivalence,
)


def theorem2() -> None:
    print("=" * 64)
    print("Theorem 2: multiway cut -> aggressive coalescing (Figure 1)")
    print("=" * 64)
    g = Graph(edges=[("s1", "u"), ("u", "s2"), ("u", "v"), ("v", "s3"), ("v", "w")])
    inst = MultiwayCutInstance(graph=g, terminals=("s1", "s2", "s3"))
    red = reduce_multiway_cut(inst)
    cut = min_multiway_cut(inst)
    result = optimal_coalescing(red.interference, 0, "valid")
    print(f"source graph: |V|={len(g)}, |E|={g.num_edges()}, 3 terminals")
    print(f"minimum multiway cut: {len(cut)} edges -> "
          f"{sorted(tuple(sorted(e)) for e in cut)}")
    print(f"optimal aggressive coalescing leaves {len(result.given_up)} "
          f"affinities uncoalesced (equal, as the theorem promises)")
    program = build_program(inst)
    print(f"Figure 1 program: {len(program.blocks)} basic blocks, "
          f"{sum(len(b.instrs) for b in program.blocks.values())} instructions")
    print()


def theorem3() -> None:
    print("=" * 64)
    print("Theorem 3: k-colorability -> conservative coalescing (Figure 2)")
    print("=" * 64)
    # K4 is not 3-colorable; C5 is
    for name, g, k in (
        ("C5", _cycle(5), 3),
        ("K4", _clique(4), 3),
    ):
        red = reduce_colorability(g, k)
        source, target = verify_equivalence(red)
        print(f"{name}: {k}-colorable = {source}; "
              f"conservative instance has zero-residual coalescing = {target}")
    print()


def theorem4() -> None:
    print("=" * 64)
    print("Theorem 4: 3SAT -> incremental coalescing (Figure 4)")
    print("=" * 64)
    sat = CNF(num_vars=3, clauses=[(1, 2, 3), (-1, -2, 3), (1, -2, -3)])
    unsat = CNF(num_vars=3)
    for signs in itertools.product((1, -1), repeat=3):
        unsat.add_clause((signs[0] * 1, signs[1] * 2, signs[2] * 3))
    for name, cnf in (("satisfiable", sat), ("unsatisfiable", unsat)):
        red = reduce_3sat(cnf)
        print(f"{name} formula ({len(cnf.clauses)} clauses):")
        print(f"  graph has {len(red.fsg.graph)} vertices; "
              f"single affinity {red.affinity}")
        print(f"  DPLL: {is_satisfiable(cnf)}, "
              f"affinity coalescible: {decide_via_coalescing(red)}")
    print()


def theorem6() -> None:
    print("=" * 64)
    print("Theorem 6: vertex cover -> optimistic coalescing (Figures 6-7)")
    print("=" * 64)
    g = Graph(edges=[("u", "v"), ("v", "w"), ("w", "u")])  # triangle
    red = reduce_vertex_cover(g)
    cover = min_vertex_cover(g)
    best = decoalesce_minimum(red.interference, 4, max_give_up=len(cover) + 1)
    print(f"source: triangle; minimum vertex cover = {len(cover)} "
          f"({sorted(cover)})")
    print(f"instance: {red.interference} with "
          f"{red.interference.num_affinities()} heart affinities")
    print(f"minimum de-coalescing to regain greedy-4-colorability: "
          f"{len(best)} affinities (equal, as the theorem promises)")
    print()


def _cycle(n: int) -> Graph:
    g = Graph()
    for i in range(n):
        g.add_edge(f"c{i}", f"c{(i + 1) % n}")
    return g


def _clique(n: int) -> Graph:
    g = Graph(vertices=[f"k{i}" for i in range(n)])
    names = list(g.vertices)
    for i in range(n):
        for j in range(i + 1, n):
            g.add_edge(names[i], names[j])
    return g


if __name__ == "__main__":
    theorem2()
    theorem3()
    theorem4()
    theorem6()
