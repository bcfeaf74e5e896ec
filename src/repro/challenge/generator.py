"""Generators of challenge-like coalescing instances.

The regime that makes the Appel–George challenge hard (and that defeats
local conservative rules, Section 4): interference graphs that are
*already k-colorable but tight* — register pressure equal or close to k
at many points — crossed by *parallel-copy affinities* (from φ
elimination or pre-allocated calling conventions).

Two generators:

* :func:`pressure_instance` — a synthetic "interval-like" instance:
  ``rounds`` layers of k simultaneously-live variables; consecutive
  layers are connected by a random partial permutation of parallel-copy
  affinities, and overlap by ``margin`` fewer variables than k (margin 0
  is the hardest regime the paper describes, Maxlive = k).
* :func:`program_instance` — run a random structured program through
  SSA + spilling to Maxlive ≤ k and return the phase-2 coalescing
  instance of the two-phase allocator (real program shape).
"""

from __future__ import annotations

import random
from typing import List, Optional

from ..graphs.interference import InterferenceGraph
from .format import ChallengeInstance


def pressure_instance(
    k: int,
    rounds: int,
    margin: int = 0,
    copy_fraction: float = 0.8,
    rng: Optional[random.Random] = None,
    name: str = "pressure",
) -> ChallengeInstance:
    """Layered parallel-copy instance with Maxlive = k − margin.

    Layer r holds variables ``r.0 .. r.(k-margin-1)``, all pairwise
    interfering (simultaneously live).  Between layer r and r+1 a random
    subset of positions carries a move (affinity); a moved source dies
    at the copy (no interference with its destination), while the
    non-moved variables of layer r stay live across the boundary and
    interfere with all of layer r+1 — exactly the parallel-copy shape of
    an out-of-SSA boundary.
    """
    if margin < 0 or margin >= k:
        raise ValueError("need 0 <= margin < k")
    rng = rng or random.Random(0)
    width = k - margin
    g = InterferenceGraph()
    current = [f"v0.{i}" for i in range(width)]
    for i in range(width):
        for j in range(i + 1, width):
            g.add_edge(current[i], current[j])
    for r in range(1, rounds):
        # each slot either survives the boundary (same variable),
        # receives a parallel copy (affinity, source dies), or is
        # redefined from scratch (no affinity)
        newborn: List[str] = []
        survivors: List[str] = []
        for i, old in enumerate(current):
            roll = rng.random()
            if roll < copy_fraction:
                new = f"v{r}.{i}"
                g.add_affinity(old, new, 1.0)
                newborn.append(new)
            elif roll < copy_fraction + 0.5 * (1 - copy_fraction):
                newborn.append(f"v{r}.{i}")  # fresh, unrelated
            else:
                survivors.append(old)
        # parallel-copy semantics (the Figure 3 convention): newborn
        # variables are simultaneously live with each other and with
        # the survivors, but not with the dying sources
        for i in range(len(newborn)):
            for j in range(i + 1, len(newborn)):
                g.add_edge(newborn[i], newborn[j])
            for s in survivors:
                g.add_edge(newborn[i], s)
        current = survivors + newborn
    return ChallengeInstance(name=name, k=k, graph=g)


def program_instance(
    seed: int,
    k: int,
    num_vars: int = 12,
    name: Optional[str] = None,
) -> ChallengeInstance:
    """The phase-2 instance of the two-phase allocator on a random
    program: strict-SSA chordal graph with Maxlive ≤ k and φ/copy
    affinities."""
    from ..allocator.spill import is_memory_slot
    from ..allocator.ssa_allocator import spill_to_pressure
    from ..ir.generators import GeneratorConfig, random_function
    from ..ir.interference import chaitin_interference, set_frequencies_from_loops
    from ..ir.ssa import construct_ssa

    func = random_function(seed, GeneratorConfig(num_vars=num_vars))
    set_frequencies_from_loops(func)
    ssa = construct_ssa(func)
    lowered, _, _ = spill_to_pressure(ssa, k)
    graph = chaitin_interference(lowered, weighted=True)
    for v in [v for v in graph.vertices if is_memory_slot(v)]:
        graph.remove_vertex(v)
    return ChallengeInstance(
        name=name or f"program{seed}", k=k, graph=graph
    )


def survivor_interferences_ok(instance: ChallengeInstance) -> bool:
    """Sanity predicate used by tests: the instance's graph must be
    greedy-k-colorable (it models code whose pressure fits k)."""
    from ..graphs.greedy import is_greedy_k_colorable

    return is_greedy_k_colorable(instance.graph, instance.k)
