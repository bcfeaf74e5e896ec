"""Theorem 4: 3SAT ≤p incremental conservative coalescing (Figure 4).

Two stages, following the paper:

1. **4SAT → 3-colorability with clause gadgets** (Figure 4).  The graph
   has a base triangle {T, F, R}; per variable a triangle
   {x_i, x̄_i, R}; per 4-literal clause: four ``a`` vertices, two ``b``
   vertices, two ``c`` vertices wired as two OR-gadgets feeding a third
   whose output is identified with the global T vertex.  G is
   3-colorable iff the 4SAT formula is satisfiable.

2. **3SAT → the coalescing question**.  Extend each 3-clause with a
   fresh variable x₀ (:func:`~repro.reductions.sat.three_sat_to_four_sat`);
   the 4SAT graph is then always 3-colorable, and the original 3SAT
   formula is satisfiable iff there is a 3-colouring with
   ``colour(x₀) = colour(F)`` — i.e. iff the single affinity
   ``(x₀, F)`` can be conservatively coalesced.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Tuple

from ..graphs.coloring import k_coloring_exact
from ..graphs.graph import Graph, Vertex
from ..graphs.interference import InterferenceGraph
from .sat import CNF, three_sat_to_four_sat

TRUE, FALSE, NEUTRAL = "T", "F", "R"


@dataclass
class FourSatGraph:
    """The Figure 4 graph for a 4SAT formula."""

    cnf: CNF
    graph: Graph

    def literal_vertex(self, lit: int) -> Vertex:
        """The vertex standing for a literal (positive or negated)."""
        return f"x{lit}" if lit > 0 else f"nx{-lit}"


def build_4sat_graph(cnf: CNF) -> FourSatGraph:
    """Build the Figure 4 graph.  Requires all clauses of size 4."""
    if cnf.clause_sizes() - {4}:
        raise ValueError("formula must have only 4-literal clauses")
    g = Graph()
    # base triangle
    g.add_edge(TRUE, FALSE)
    g.add_edge(FALSE, NEUTRAL)
    g.add_edge(NEUTRAL, TRUE)
    # variable triangles: x_i and its negation with R
    for i in range(1, cnf.num_vars + 1):
        g.add_edge(f"x{i}", f"nx{i}")
        g.add_edge(f"x{i}", NEUTRAL)
        g.add_edge(f"nx{i}", NEUTRAL)

    def lit(literal: int) -> Vertex:
        return f"x{literal}" if literal > 0 else f"nx{-literal}"

    for ci, clause in enumerate(cnf.clauses):
        y1, y2, y3, y4 = (lit(l) for l in clause)
        a1, a2, a3, a4 = (f"a{ci}_{j}" for j in range(1, 5))
        b1, b2 = f"b{ci}_1", f"b{ci}_2"
        c1, c2 = f"c{ci}_1", f"c{ci}_2"
        # OR gadget 1: b1 = y1 ∨ y2
        g.add_edge(y1, a1)
        g.add_edge(y2, a2)
        g.add_edge(a1, a2)
        g.add_edge(a1, b1)
        g.add_edge(a2, b1)
        # OR gadget 2: b2 = y3 ∨ y4
        g.add_edge(y3, a3)
        g.add_edge(y4, a4)
        g.add_edge(a3, a4)
        g.add_edge(a3, b2)
        g.add_edge(a4, b2)
        # OR gadget 3 with its output identified with T:
        # colourable iff b1 ∨ b2 is not (F, F)
        g.add_edge(b1, c1)
        g.add_edge(b2, c2)
        g.add_edge(c1, c2)
        g.add_edge(c1, TRUE)
        g.add_edge(c2, TRUE)
    return FourSatGraph(cnf=cnf, graph=g)


def assignment_to_coloring(
    fsg: FourSatGraph, assignment: Dict[int, bool]
) -> Dict[Vertex, int]:
    """Extend a satisfying assignment to a full 3-colouring of the
    Figure 4 graph (colours: 0 = T, 1 = F, 2 = R).

    Follows the paper's proof: colour each literal by its truth value,
    each b as T iff one of its pair of literals is true, and complete
    the a/c internals with closed-form rules (the gadget analysis in
    the proof of Theorem 4)."""
    if not fsg.cnf.is_satisfied_by(assignment):
        raise ValueError("assignment does not satisfy the formula")
    coloring: Dict[Vertex, int] = {TRUE: 0, FALSE: 1, NEUTRAL: 2}
    for i in range(1, fsg.cnf.num_vars + 1):
        value = assignment[i]
        coloring[f"x{i}"] = 0 if value else 1
        coloring[f"nx{i}"] = 1 if value else 0

    def or_inputs(t1: int, t2: int, b: int) -> Tuple[int, int]:
        """Colours for the two a-vertices of an OR gadget whose literal
        inputs are coloured t1, t2 and whose output b is fixed."""
        if b == 1:  # both literals false: a's take T and R
            return 0, 2
        # b = 0: at least one literal is true (coloured 0)
        if t1 == 1:
            return 2, 1
        return 1, 2

    for ci, clause in enumerate(fsg.cnf.clauses):
        values = [assignment[abs(l)] == (l > 0) for l in clause]
        lits = [
            coloring[f"x{l}" if l > 0 else f"nx{-l}"] for l in clause
        ]
        b1 = 0 if (values[0] or values[1]) else 1
        b2 = 0 if (values[2] or values[3]) else 1
        coloring[f"b{ci}_1"] = b1
        coloring[f"b{ci}_2"] = b2
        a1, a2 = or_inputs(lits[0], lits[1], b1)
        a3, a4 = or_inputs(lits[2], lits[3], b2)
        coloring[f"a{ci}_1"] = a1
        coloring[f"a{ci}_2"] = a2
        coloring[f"a{ci}_3"] = a3
        coloring[f"a{ci}_4"] = a4
        # c gadget: c1 avoids {b1, T}; c2 takes the other of {F, R}
        c1 = 1 if b1 == 0 else 2
        c2 = 2 if c1 == 1 else 1
        if c2 == coloring[f"b{ci}_2"]:
            raise AssertionError("clause unsatisfied slipped through")
        coloring[f"c{ci}_1"] = c1
        coloring[f"c{ci}_2"] = c2
    return coloring


def coloring_to_assignment(
    fsg: FourSatGraph, coloring: Dict[Vertex, int]
) -> Dict[int, bool]:
    """Read a truth assignment off a 3-colouring (paper's converse
    direction): a variable is true iff coloured like T."""
    t_color = coloring[TRUE]
    return {
        i: coloring[f"x{i}"] == t_color
        for i in range(1, fsg.cnf.num_vars + 1)
    }


@dataclass
class IncrementalReduction:
    """The full Theorem 4 instance: graph + the single affinity."""

    source: CNF                 # the original 3SAT formula
    four_sat: CNF               # with x0 added to every clause
    x0: int
    fsg: FourSatGraph
    affinity: Tuple[Vertex, Vertex]

    @property
    def interference(self) -> InterferenceGraph:
        """The instance as an interference graph with its one affinity."""
        g = InterferenceGraph()
        for v in self.fsg.graph.vertices:
            g.add_vertex(v)
        for u, v in self.fsg.graph.edges():
            g.add_edge(u, v)
        g.add_affinity(*self.affinity)
        return g


def reduce_3sat(cnf: CNF) -> IncrementalReduction:
    """Build the Theorem 4 instance from a 3SAT formula.

    The graph is 3-colorable by construction (set x0 true); the
    affinity (x0-vertex, F) is coalescible iff the 3SAT formula is
    satisfiable.
    """
    four, x0 = three_sat_to_four_sat(cnf)
    fsg = build_4sat_graph(four)
    return IncrementalReduction(
        source=cnf,
        four_sat=four,
        x0=x0,
        fsg=fsg,
        affinity=(f"x{x0}", FALSE),
    )


def decide_via_coalescing(reduction: IncrementalReduction) -> bool:
    """Decide 3SAT satisfiability through the coalescing instance:
    is there a 3-colouring with colour(x0) = colour(F)?"""
    x, y = reduction.affinity
    return (
        k_coloring_exact(reduction.fsg.graph, 3, same_color=[(x, y)])
        is not None
    )
