"""Shared machinery for the coalescing strategies.

Every strategy consumes an :class:`~repro.graphs.InterferenceGraph` and
produces a :class:`CoalescingResult`: the partition of the vertices
(``coalescing``), the quotient graph, and bookkeeping about which
affinities were coalesced and what the residual move cost is — the
paper's objective "at most K affinities are not coalesced".
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

from ..graphs.graph import Vertex
from ..graphs.interference import Coalescing, InterferenceGraph


@dataclass
class CoalescingResult:
    """Outcome of a coalescing strategy on an interference graph.

    The ledger depends on the partition alone: one walk of
    ``graph.affinities()`` at construction splits them into
    ``coalesced`` and ``given_up`` (both in that order), and the
    aggregates derive from those lists.  ``strategy`` is the engine's
    name for the producer, a key of :data:`repro.engine.tasks.
    STRATEGY_TABLE`, where the verifier looks up its contract.
    ``coloring`` is a k-colouring of ``graph`` that the strategy found
    itself (biased colouring steers colours rather than merging); an
    allocator uses it as is instead of colouring the quotient afresh.
    """

    graph: InterferenceGraph
    coalescing: Coalescing
    strategy: str
    coloring: Optional[Dict[Vertex, int]] = None
    #: affinities (u, v, w) whose endpoints share a class
    coalesced: List[Tuple[Vertex, Vertex, float]] = field(init=False)
    #: affinities (u, v, w) left in the code (residual moves)
    given_up: List[Tuple[Vertex, Vertex, float]] = field(init=False)

    def __post_init__(self) -> None:
        self.coalesced, self.given_up = [], []
        same_class = self.coalescing.same_class
        for affinity in self.graph.affinities():
            ledger = (
                self.coalesced if same_class(affinity[0], affinity[1])
                else self.given_up
            )
            ledger.append(affinity)

    @property
    def coalesced_weight(self) -> float:
        """Total weight of removed moves."""
        return self.graph.total_affinity_weight() - self.residual_weight

    @property
    def residual_weight(self) -> float:
        """Total weight of remaining moves (the paper's K)."""
        return sum(w for _, _, w in self.given_up)

    @property
    def num_coalesced(self) -> int:
        """Number of affinity pairs coalesced."""
        return len(self.coalesced)

    def coalesced_graph(self) -> InterferenceGraph:
        """The quotient graph :math:`G_f`."""
        return self.coalescing.coalesced_graph()

    def summary(self) -> str:
        """One-line human-readable outcome."""
        total = self.graph.total_affinity_weight()
        return (
            f"{self.strategy}: coalesced {self.num_coalesced}/"
            f"{self.graph.num_affinities()} affinities, "
            f"residual weight {self.residual_weight:g}/{total:g}"
        )


def affinities_by_weight(graph: InterferenceGraph) -> List[Tuple[Vertex, Vertex, float]]:
    """Affinities sorted by decreasing weight (ties broken stably by
    name, for determinism)."""
    return sorted(
        graph.affinities(), key=lambda a: (-a[2], str(a[0]), str(a[1]))
    )


def empty_coalescing(graph: InterferenceGraph) -> Coalescing:
    """The identity coalescing (no affinity coalesced)."""
    return Coalescing(graph)
