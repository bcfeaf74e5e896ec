"""Theorem 6: vertex cover ≤p optimistic coalescing (Figures 6–7).

For every vertex ``v`` of a degree-≤ 3 graph ``G`` build a *structure*
S(v) with k = 4:

* a heart of two non-interfering vertices ``A, A'`` joined by the one
  affinity of the structure;
* an inner 4-clique ``q1..q4`` (the bold clique of Figure 6);
* three branches, one per possible neighbour: port ``v_j`` plus a
  widget vertex ``w_j`` wiring the branch to the heart and the clique.

An edge ``(u, v)`` of ``G`` becomes an interference between a free port
of S(u) and a free port of S(v).

The wiring (verified property by property in the test suite —
``structure_properties``) realizes exactly the behaviour the proof
needs:

* with the heart coalesced and every port occupied, *every* vertex of
  the structure has degree ≥ 4: the greedy elimination cannot touch it;
* de-coalescing the heart lets the elimination eat the entire
  structure from the inside, ports included, whatever the ports see;
* if all ports lose their outside edges, the structure is eaten even
  with the heart coalesced;
* eating from a strict subset of branches stalls before the inner
  clique (the "cannot be attacked by any two of its branches" claim).

Consequently the de-coalesced quotient is greedy-4-colorable iff the
de-coalesced structures form a vertex cover of ``G``, so the minimum
number of given-up affinities equals the minimum vertex cover size.

Note on Figure 7: the paper additionally splits widget vertices with
extra affinities to make the instance graph *chordal*, strengthening
the theorem.  The hexagon widgets' exact drawing is not recoverable
from the text, so this module reconstructs a functionally equivalent
structure and verifies the proof's stated properties mechanically; the
instance graph here is greedy-4-colorable (the class the problem
statement requires) but not necessarily chordal.  This substitution is
recorded in DESIGN.md.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Set, Tuple

from ..graphs.graph import Graph, Vertex
from ..graphs.greedy import dense_subgraph_witness, is_greedy_k_colorable
from ..graphs.interference import Coalescing, InterferenceGraph

K = 4  # the fixed register count of Theorem 6


@dataclass
class OptimisticReduction:
    """The Theorem 6 instance plus bookkeeping."""

    source: Graph
    interference: InterferenceGraph
    #: source vertex -> its heart affinity (A, A')
    hearts: Dict[Vertex, Tuple[Vertex, Vertex]]
    #: source vertex -> its three port vertices
    ports: Dict[Vertex, List[Vertex]]
    #: source edge -> the port interference realizing it
    edge_ports: Dict[Tuple[Vertex, Vertex], Tuple[Vertex, Vertex]]


def _add_structure(g: InterferenceGraph, tag: str) -> Tuple[Tuple[str, str], List[str]]:
    """Add one vertex structure; return its heart pair and ports.

    Wiring (all names prefixed by ``tag``):

    * inner clique q1..q4;
    * heart: A adjacent to the three widget vertices w1..w3;
      A' adjacent to q1, q2, q3;
    * branch j: w_j adjacent to {A, v_j, q1, q2},
      port v_j adjacent to {w_j, q3, q4}.
    """
    a, a2 = f"{tag}.A", f"{tag}.A'"
    qs = [f"{tag}.q{i}" for i in range(1, 5)]
    for i in range(4):
        for j in range(i + 1, 4):
            g.add_edge(qs[i], qs[j])
    g.add_vertex(a)
    g.add_vertex(a2)
    for q in qs[:3]:
        g.add_edge(a2, q)
    ports: List[str] = []
    for j in range(1, 4):
        w, v = f"{tag}.w{j}", f"{tag}.v{j}"
        g.add_edge(w, a)
        g.add_edge(w, v)
        g.add_edge(w, qs[0])
        g.add_edge(w, qs[1])
        g.add_edge(v, qs[2])
        g.add_edge(v, qs[3])
        ports.append(v)
    g.add_affinity(a, a2, 1.0)
    return (a, a2), ports


def reduce_vertex_cover(graph: Graph) -> OptimisticReduction:
    """Build the Theorem 6 instance from a degree-≤ 3 graph."""
    if graph.max_degree() > 3:
        raise ValueError("Theorem 6 requires maximum degree ≤ 3")
    g = InterferenceGraph()
    hearts: Dict[Vertex, Tuple[Vertex, Vertex]] = {}
    ports: Dict[Vertex, List[Vertex]] = {}
    free: Dict[Vertex, List[Vertex]] = {}
    for v in graph.vertices:
        heart, plist = _add_structure(g, f"S[{v}]")
        hearts[v] = heart
        ports[v] = plist
        free[v] = list(plist)
    edge_ports: Dict[Tuple[Vertex, Vertex], Tuple[Vertex, Vertex]] = {}
    for u, v in graph.edges():
        pu = free[u].pop()
        pv = free[v].pop()
        g.add_edge(pu, pv)
        edge_ports[(u, v)] = (pu, pv)
    return OptimisticReduction(
        source=graph,
        interference=g,
        hearts=hearts,
        ports=ports,
        edge_ports=edge_ports,
    )


def cover_to_decoalescing(
    reduction: OptimisticReduction, cover: Set[Vertex]
) -> Coalescing:
    """Coalesce the hearts of every structure *not* in the cover —
    i.e. de-coalesce exactly the cover's affinities from the fully
    coalesced graph."""
    coalescing = Coalescing(reduction.interference)
    for v, (a, a2) in reduction.hearts.items():
        if v not in cover:
            coalescing.union(a, a2)
    return coalescing


def decoalescing_to_cover(
    reduction: OptimisticReduction, coalescing: Coalescing
) -> Set[Vertex]:
    """The set of source vertices whose heart affinity is given up."""
    return {
        v
        for v, (a, a2) in reduction.hearts.items()
        if not coalescing.same_class(a, a2)
    }


def quotient_is_greedy(reduction: OptimisticReduction, cover: Set[Vertex]) -> bool:
    """Is the quotient after de-coalescing exactly ``cover`` greedy-4-
    colorable?  (The theorem says: iff ``cover`` is a vertex cover.)"""
    quotient = cover_to_decoalescing(reduction, cover).coalesced_graph()
    return is_greedy_k_colorable(quotient, K)


# ----------------------------------------------------------------------
# the structure-level properties the proof relies on
# ----------------------------------------------------------------------
def structure_properties() -> Dict[str, bool]:
    """Check the four behaviours of a single structure (see module
    docstring).  Returns a dict of named boolean results; the test
    suite asserts they are all True."""
    results: Dict[str, bool] = {}

    def make(occupied: int, coalesce_heart: bool) -> InterferenceGraph:
        g = InterferenceGraph()
        (a, a2), ports = _add_structure(g, "S")
        for i in range(occupied):
            g.add_edge(ports[i], f"ext{i}")
            # make the external rigid so it cannot be eaten first
            for j in range(4):
                g.add_edge(f"ext{i}", f"pin{i}_{j}")
                for j2 in range(j):
                    g.add_edge(f"pin{i}_{j}", f"pin{i}_{j2}")
                g.add_edge(f"pin{i}_{j}", f"pin{i}_top")
        if coalesce_heart:
            g.merge_in_place(a, a2)
        return g

    def survivors(g: InterferenceGraph) -> Set[Vertex]:
        return set(dense_subgraph_witness(g, K) or ())

    # R1: coalesced heart + all ports occupied -> fully rigid
    g = make(3, True)
    alive = survivors(g)
    results["rigid_when_coalesced"] = all(
        v in alive for v in g.vertices if str(v).startswith("S.")
    )
    # R2: de-coalesced heart -> whole structure eaten despite occupancy
    g = make(3, False)
    alive = survivors(g)
    results["eaten_when_decoalesced"] = not any(
        str(v).startswith("S.") for v in alive
    )
    # R3: coalesced heart + no ports occupied -> eaten
    g = make(0, True)
    results["eaten_when_neighbors_gone"] = is_greedy_k_colorable(g, K)
    # R5: coalesced heart + one port occupied -> stalls with the inner
    # clique and that branch alive
    g = make(1, True)
    alive = survivors(g)
    clique_alive = all(f"S.q{i}" in alive for i in range(1, 5))
    port_alive = "S.v1" in alive
    results["stalls_with_one_branch"] = clique_alive and port_alive
    return results
