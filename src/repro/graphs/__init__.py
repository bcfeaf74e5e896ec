"""Graph substrate: interference graphs, chordality, colourability.

Public surface of the graph layer.  The coalescing algorithms in
:mod:`repro.coalescing` and the reductions in :mod:`repro.reductions`
are built entirely on these primitives.
"""

from .graph import Graph, Vertex
from .dense import DenseGraph
from .interference import (
    Coalescing,
    InterferenceGraph,
    coalescing_from_mapping,
)
from .chordal import (
    CliqueTree,
    chordal_coloring,
    clique_number_chordal,
    clique_tree,
    is_chordal,
    make_chordal,
    maximal_cliques_chordal,
    maximum_cardinality_search,
    perfect_elimination_ordering,
    simplicial_vertices,
)
from .coloring import (
    chromatic_number,
    dsatur_coloring,
    greedy_coloring,
    is_k_colorable,
    k_coloring_exact,
    verify_coloring,
)
from .greedy import (
    coloring_number,
    dense_subgraph_witness,
    greedy_elimination_order,
    greedy_k_coloring,
    is_greedy_k_colorable,
)
from . import dense, generators, io

__all__ = [
    "Graph",
    "Vertex",
    "DenseGraph",
    "InterferenceGraph",
    "Coalescing",
    "coalescing_from_mapping",
    "CliqueTree",
    "chordal_coloring",
    "clique_number_chordal",
    "clique_tree",
    "is_chordal",
    "make_chordal",
    "maximal_cliques_chordal",
    "maximum_cardinality_search",
    "perfect_elimination_ordering",
    "simplicial_vertices",
    "chromatic_number",
    "dsatur_coloring",
    "greedy_coloring",
    "is_k_colorable",
    "k_coloring_exact",
    "verify_coloring",
    "coloring_number",
    "dense_subgraph_witness",
    "greedy_elimination_order",
    "greedy_k_coloring",
    "is_greedy_k_colorable",
    "dense",
    "generators",
    "io",
]
