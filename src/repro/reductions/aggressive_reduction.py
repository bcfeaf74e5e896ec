"""Theorem 2: multiway cut ≤p aggressive coalescing (Figure 1).

Construction, following the paper:

1. subdivide every edge ``e = (u, v)`` of the multiway-cut graph with a
   fresh vertex ``x_e`` — at most one of the two half-edges ever needs
   to be cut;
2. the *interference* graph contains only a clique on the terminals
   (a triangle for k = 3); every subdivided half-edge becomes an
   **affinity**;
3. ``(G, S, K)`` has a multiway cut of size ≤ K iff the coalescing
   instance can leave ≤ K affinities uncoalesced: connected components
   of the uncut half-edge graph are monochromatic classes, and the
   terminal clique forces the k terminal classes apart.

The module also builds the **program** of Figure 1 whose interference
graph *is* this instance (`build_program`), closing the loop from
graph-level reduction to actual code: one block defining all terminals
together, one block per non-terminal vertex, and per original edge two
move blocks ``x_e = u`` / ``x_e = v`` feeding a common use block.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, FrozenSet, Set, Tuple

from ..graphs.graph import Vertex
from ..graphs.interference import Coalescing, InterferenceGraph
from ..ir.builder import FunctionBuilder
from ..ir.cfg import Function
from .multiway_cut import MultiwayCutInstance


@dataclass
class AggressiveReduction:
    """The target coalescing instance plus the solution maps."""

    source: MultiwayCutInstance
    interference: InterferenceGraph
    #: original edge (u, v) -> its two half-edge affinities
    half_edges: Dict[Tuple[Vertex, Vertex], Tuple[Tuple[Vertex, Vertex], Tuple[Vertex, Vertex]]]

    def subdivision_vertex(self, u: Vertex, v: Vertex) -> Vertex:
        """The x_e vertex created for the original edge (u, v)."""
        key = (u, v) if (u, v) in self.half_edges else (v, u)
        return self.half_edges[key][0][1]


def reduce_multiway_cut(instance: MultiwayCutInstance) -> AggressiveReduction:
    """Build the aggressive-coalescing instance of Theorem 2."""
    g = InterferenceGraph(vertices=list(instance.graph.vertices))
    terminals = instance.terminals
    for i in range(len(terminals)):
        for j in range(i + 1, len(terminals)):
            g.add_edge(terminals[i], terminals[j])
    half_edges: Dict[
        Tuple[Vertex, Vertex],
        Tuple[Tuple[Vertex, Vertex], Tuple[Vertex, Vertex]],
    ] = {}
    for idx, (u, v) in enumerate(instance.graph.edges()):
        xe = f"x_e{idx}"
        g.add_affinity(u, xe, 1.0)
        g.add_affinity(xe, v, 1.0)
        half_edges[(u, v)] = ((u, xe), (xe, v))
    return AggressiveReduction(
        source=instance, interference=g, half_edges=half_edges
    )


def cut_to_coalescing(
    reduction: AggressiveReduction, removed: Set[FrozenSet[Vertex]]
) -> Coalescing:
    """Map a multiway cut to a coalescing with ≤ |cut| residual
    affinities.

    Components of the subdivided graph minus the cut get one class
    each; a cut original edge breaks exactly one of its two half-edge
    affinities (x_e goes with whichever endpoint's side keeps it).
    """
    graph = reduction.interference
    coalescing = Coalescing(graph)
    for (u, v), ((a1, xe), (a2, _)) in reduction.half_edges.items():
        if frozenset((u, v)) in removed:
            # keep x_e with u's side: give up the (x_e, v) half-edge
            coalescing.union(u, xe)
        else:
            coalescing.union(u, xe)
            coalescing.union(xe, v)
    return coalescing


def coalescing_to_cut(
    reduction: AggressiveReduction, coalescing: Coalescing
) -> Set[FrozenSet[Vertex]]:
    """Map a coalescing back to a multiway cut of size ≤ the number of
    uncoalesced affinities: cut each original edge with a broken
    half-edge."""
    cut: Set[FrozenSet[Vertex]] = set()
    for (u, v), (h1, h2) in reduction.half_edges.items():
        broken = not coalescing.same_class(*h1) or not coalescing.same_class(*h2)
        if broken:
            cut.add(frozenset((u, v)))
    return cut


# ----------------------------------------------------------------------
# the Figure 1 program construction
# ----------------------------------------------------------------------
def build_program(instance: MultiwayCutInstance) -> Function:
    """A program whose interference graph is the Theorem 2 instance.

    Layout (Figure 1): an entry dispatching to the definition blocks; a
    block ``B`` defining all terminals with a single instruction (one
    parallel definition keeps them simultaneously live); a block ``B_v``
    per non-terminal; per original edge ``e = (u, v)``, two predecessor
    blocks performing ``x_e = u`` and ``x_e = v`` and a block ``C_e``
    using ``x_e``.
    """
    from ..ir.instructions import Instr

    fb = FunctionBuilder("figure1")
    fb.block("entry")
    terminals = instance.terminals
    term_set = set(terminals)
    # a single instruction defining all terminals in parallel keeps
    # them simultaneously live: the terminal clique
    fb.block("B")
    fb.func.blocks["B"].instrs.append(
        Instr("defk", tuple(str(t) for t in terminals), ())
    )
    fb.edge("entry", "B")
    def_block: Dict[Vertex, str] = {t: "B" for t in terminals}
    for v in instance.graph.vertices:
        if v in term_set:
            continue
        name = f"B_{v}"
        fb.block(name).const(str(v))
        fb.edge("entry", name)
        def_block[v] = name
    for idx, (u, v) in enumerate(instance.graph.edges()):
        xe = f"x_e{idx}"
        use_block = f"C_e{idx}"
        fb.block(use_block).use(xe)
        for endpoint in (u, v):
            mv = f"P_e{idx}_{endpoint}"
            fb.block(mv).mov(xe, str(endpoint))
            fb.edge(def_block[endpoint], mv)
            fb.edge(mv, use_block)
    return fb.finish()


def program_matches_reduction(
    instance: MultiwayCutInstance, unweighted: bool = True
) -> bool:
    """Check that the Figure 1 program's interference graph equals the
    direct graph construction (same interferences among the original
    vertices and x_e's, same affinities)."""
    from ..ir.interference import chaitin_interference

    reduction = reduce_multiway_cut(instance)
    func = build_program(instance)
    built = chaitin_interference(func, weighted=not unweighted)
    expect = reduction.interference

    name = {v: str(v) for v in expect.vertices}
    if set(built.vertices) != {name[v] for v in expect.vertices}:
        return False
    expect_edges = {
        frozenset((name[u], name[v])) for u, v in expect.edges()
    }
    built_edges = {frozenset(e) for e in built.edges()}
    if expect_edges != built_edges:
        return False
    expect_affinities = {
        frozenset((name[u], name[v])) for u, v, _ in expect.affinities()
    }
    built_affinities = {
        frozenset((u, v)) for u, v, _ in built.affinities()
    }
    return expect_affinities == built_affinities
