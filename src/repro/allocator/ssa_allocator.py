"""Two-phase SSA-based register allocator.

The decoupled design the paper credits to Appel–George and the SSA
line of work (Section 1): first *spill* until Maxlive ≤ k — after
which the strict-SSA interference graph is chordal with ω = Maxlive ≤ k
(Theorem 1), hence colourable with k colours without further spills —
then *colour and coalesce* in one final phase on a greedy-k-colorable
graph (Property 1 guarantees the Chaitin elimination machinery still
applies).

The coalescing phase is pluggable: any strategy whose quotient is
greedy-k-colourable (the conservative tests, optimistic, biased,
chordal, IRC) is handed in as a callable — which is exactly the
comparison surface of the E1/E2 benchmarks.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Dict, List, Optional, Set, Tuple

from ..coalescing.base import CoalescingResult
from ..graphs.chordal import is_chordal
from ..graphs.greedy import greedy_k_coloring
from ..graphs.graph import Vertex
from ..ir.cfg import Function
from ..ir.interference import chaitin_interference, set_frequencies_from_loops
from ..ir.instructions import Var
from ..ir.liveness import compute_liveness, maxlive
from ..ir.ssa import construct_ssa
from ..obs import NULL_TRACER, Tracer
from .chaitin import AllocationResult
from .spill import is_memory_slot, is_spill_temp, spill_costs, spill_everywhere


@dataclass
class SSAAllocationStats:
    """Extra reporting for the two-phase allocator."""

    maxlive_before: int = 0
    maxlive_after: int = 0
    spill_rounds: int = 0
    chordal: bool = False
    coalescing: Optional[CoalescingResult] = None


def spill_to_pressure(
    func: Function,
    k: int,
    tracer: Tracer = NULL_TRACER,
) -> Tuple[Function, List[Var], int]:
    """Phase 1: spill everywhere until Maxlive ≤ k.

    Maxlive counts no memory slot.  Each round spills the cheapest
    variable (least :func:`~repro.allocator.spill.spill_costs`, ties
    by name) live at the first point of maximum pressure, walking the
    reachable blocks in order and each block bottom-up to its φ point.
    The choice is not optimal: the paper's companion work treats
    optimal spilling separately.

    Each round spills a distinct variable of ``func`` (never a reload
    temporary, and :func:`spill_everywhere` rewrites the victim away),
    so the loop ends within ``len(func.variables())`` rounds.

    Returns (rewritten function, spilled variables, rounds).
    """
    work = func
    spilled: List[Var] = []
    rounds = 0
    limit = len(func.variables())
    while maxlive(work, skip=is_memory_slot) > k:
        rounds += 1
        if rounds > limit:
            raise RuntimeError("pressure spilling did not converge")
        info = compute_liveness(work)
        costs = spill_costs(work)
        # find a maximal-pressure point and spill its cheapest live var
        best_point: Tuple[str, int] = ("", -1)
        best_live: Set[Var] = set()
        # insertion-order walk: ties between equal-pressure points are
        # broken by visit order, which must not follow string hashing
        for name in work.reachable_order():
            block = work.blocks[name]
            live = {v for v in info.live_out[name] if not is_memory_slot(v)}
            if len(live) > len(best_live):
                best_live, best_point = set(live), (name, len(block.instrs))
            for i in range(len(block.instrs) - 1, -1, -1):
                instr = block.instrs[i]
                cand = {
                    v
                    for v in (live | set(instr.defs))
                    if not is_memory_slot(v)
                }
                if len(cand) > len(best_live):
                    best_live, best_point = set(cand), (name, i)
                live -= set(instr.defs)
                live |= {u for u in instr.uses if not is_memory_slot(u)}
            # the block-top point where all φ-targets are defined in
            # parallel (counted by maxlive, so it must be spillable too)
            phi_targets = {
                p.target for p in block.phis if not is_memory_slot(p.target)
            }
            cand = {
                v for v in (live | phi_targets) if not is_memory_slot(v)
            }
            if len(cand) > len(best_live):
                best_live, best_point = set(cand), (name, -1)
        if not best_live:
            break
        # never re-spill a reload temporary (".rN"): its range is already
        # minimal, so spilling it again cannot reduce pressure
        spillable = {v for v in best_live if not is_spill_temp(v)}
        if not spillable:
            raise RuntimeError(
                "register pressure cannot be reduced below k: a single "
                "instruction keeps more than k reload temporaries live"
            )
        victim = min(spillable, key=lambda v: (costs.get(v, 0.0), str(v)))
        spilled.append(victim)
        tracer.count("spill.rounds")
        tracer.event("spill.victim", var=str(victim), round=rounds)
        work = spill_everywhere(work, {victim}, tracer=tracer)
    return work, spilled, rounds



def ssa_allocate(
    func: Function,
    k: int,
    coalesce: Optional[Callable[..., CoalescingResult]],
    tracer: Tracer = NULL_TRACER,
) -> Tuple[AllocationResult, SSAAllocationStats]:
    """Run the full two-phase allocator.

    ``coalesce(graph, k, tracer=)`` is the phase-2 coalescing strategy,
    a ``run`` of :data:`repro.engine.tasks.STRATEGY_TABLE` whose
    contract is greedy-k-colourable, or ``None`` for no coalescing.
    The quotient of its partition is greedy-coloured, unless the result
    carries its own ``coloring`` (biased colouring), which is used as
    is.  ``tracer`` records per-phase wall time (construct / spill /
    build / coalesce / colour) and the phase counters.
    """
    if k <= 0:
        raise ValueError("need at least one register")
    if not func.frequency:
        set_frequencies_from_loops(func)
    with tracer.span("ssa/construct"):
        ssa = construct_ssa(func)
    stats = SSAAllocationStats(
        maxlive_before=maxlive(ssa, skip=is_memory_slot))
    tracer.count("ssa.maxlive_before", stats.maxlive_before)

    # phase 1: spill
    with tracer.span("ssa/spill"):
        lowered, spilled, rounds = spill_to_pressure(ssa, k, tracer=tracer)
    stats.spill_rounds = rounds
    stats.maxlive_after = maxlive(lowered, skip=is_memory_slot)
    tracer.count("ssa.spill_rounds", rounds)
    tracer.count("ssa.spilled", len(spilled))
    tracer.count("ssa.maxlive_after", stats.maxlive_after)

    # phase 2: colour + coalesce
    with tracer.span("ssa/build"):
        graph = chaitin_interference(lowered, weighted=True)
        for v in [v for v in graph.vertices if is_memory_slot(v)]:
            graph.remove_vertex(v)
        stats.chordal = is_chordal(graph)

    coloring: Optional[Dict[Vertex, int]] = None
    quotient, mapping = graph, {v: v for v in graph.vertices}
    coalesced_moves = 0
    if coalesce is not None:
        with tracer.span("ssa/coalesce"):
            result = coalesce(graph, k, tracer=tracer)
        stats.coalescing = result
        coalesced_moves = result.num_coalesced
        coloring = result.coloring
        if coloring is None:
            quotient = result.coalesced_graph()
            mapping = result.coalescing.as_mapping()
    if coloring is None:
        with tracer.span("ssa/color"):
            colors = greedy_k_coloring(quotient, k)
        if colors is None:
            raise AssertionError(
                "phase-2 graph not greedy-k-colorable despite Maxlive ≤ k"
            )
        coloring = {v: colors[mapping[v]] for v in graph.vertices}
    return AllocationResult(
        function=lowered,
        assignment=dict(coloring),
        k=k,
        spilled=spilled,
        coalesced_moves=coalesced_moves,
    ), stats
