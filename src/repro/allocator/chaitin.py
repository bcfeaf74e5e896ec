"""A Chaitin–Briggs register allocator with iterated coalescing.

The classical framework the paper describes in Section 1: simplify /
coalesce / freeze / potential-spill / select, iterated after actual
spills.  Coalescing inside the loop is conservative (Briggs + George by
default, configurable — including the brute-force test, to measure the
paper's claim that it coalesces strictly more).

This allocator is the baseline of the E3 benchmark and the substrate
for the "interplay of spilling and coalescing" discussion.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, FrozenSet, List, Set, Tuple

from ..graphs.dense import (
    DENSE_TESTS,
    briggs_george_test,
    is_greedy_k_colorable,
)
from ..graphs.interference import InterferenceGraph
from ..ir.cfg import Function
from ..ir.interference import chaitin_interference, set_frequencies_from_loops
from ..ir.instructions import Var
from ..obs import NULL_TRACER, Tracer
from .spill import is_memory_slot, is_spill_temp, spill_costs, spill_everywhere


@dataclass
class AllocationResult:
    """Outcome of a register allocation."""

    function: Function              # the final (possibly spill-rewritten) code
    assignment: Dict[Var, int]      # variable -> register
    k: int
    spilled: List[Var] = field(default_factory=list)
    coalesced_moves: int = 0
    iterations: int = 1

    @property
    def residual_moves(self) -> int:
        """Copy instructions whose operands got different registers."""
        count = 0
        for _, _, instr in self.function.moves():
            dst, src = instr.defs[0], instr.uses[0]
            if self.assignment.get(dst) != self.assignment.get(src):
                count += 1
        return count


def _strip_slots(graph: InterferenceGraph) -> None:
    for v in [v for v in graph.vertices if is_memory_slot(v)]:
        graph.remove_vertex(v)


SPILL_METRICS = ("cost_degree", "cost", "degree")


def chaitin_allocate(
    func: Function,
    k: int,
    coalesce_test: str = "briggs_george",
    max_iterations: int = 12,
    spill_metric: str = "cost_degree",
    tracer: Tracer = NULL_TRACER,
) -> AllocationResult:
    """Run the full Chaitin–Briggs loop on ``func`` with ``k`` registers.

    Iterates build → simplify/coalesce/freeze/spill → select; on actual
    spills the code is rewritten (spill everywhere) and the loop
    restarts.  Raises ``RuntimeError`` when a round's actual spills
    are all reload temporaries (k is below what one instruction needs),
    or when spilling does not converge in ``max_iterations`` rounds.

    ``spill_metric`` picks the potential-spill heuristic: Chaitin's
    classic cost/degree ratio (default), plain minimum cost, or maximum
    degree — compared in the spill ablation bench.
    """
    if k <= 0:
        raise ValueError("need at least one register")
    if spill_metric not in SPILL_METRICS:
        raise ValueError(f"unknown spill metric {spill_metric!r}")
    if coalesce_test not in DENSE_TESTS:
        raise KeyError(
            f"unknown coalesce test {coalesce_test!r}; "
            f"choose from {sorted(DENSE_TESTS)}"
        )
    if not func.frequency:
        set_frequencies_from_loops(func)
    work_func = func
    total_spilled: List[Var] = []
    for iteration in range(1, max_iterations + 1):
        tracer.count("chaitin.iterations")
        with tracer.span("chaitin/build"):
            graph = chaitin_interference(work_func, weighted=True)
            _strip_slots(graph)
            costs = spill_costs(work_func)
        with tracer.span("chaitin/color"):
            assignment, coalesced, actual_spills = _color_round(
                graph, k, coalesce_test, costs, spill_metric, tracer=tracer
            )
        if not actual_spills:
            return AllocationResult(
                function=work_func,
                assignment=assignment,
                k=k,
                spilled=total_spilled,
                coalesced_moves=coalesced,
                iterations=iteration,
            )
        if all(is_spill_temp(v) for v in actual_spills):
            # re-spilling a reload temporary cannot reduce pressure
            raise RuntimeError(
                "register pressure cannot be reduced below k: a single "
                "instruction keeps more than k reload temporaries live"
            )
        total_spilled.extend(actual_spills)
        tracer.count("chaitin.actual_spills", len(actual_spills))
        with tracer.span("chaitin/spill-rewrite"):
            work_func = spill_everywhere(
                work_func, set(actual_spills), tracer=tracer
            )
    raise RuntimeError("spilling did not converge")


def _color_round(
    graph: InterferenceGraph,
    k: int,
    test: str,
    costs: Dict[Var, float],
    spill_metric: str = "cost_degree",
    tracer: Tracer = NULL_TRACER,
) -> Tuple[Dict[Var, int], int, List[Var]]:
    """One simplify/coalesce/freeze/spill/select round on a copy of the
    graph's dense twin, with the tests of
    :data:`~repro.graphs.dense.DENSE_TESTS`.

    Vertices are visited in slot order.  A coalesced pair re-enters
    last under its ``str``-smaller name (``add_vertex`` then
    ``merge_group``); its affinities fold with summed weights and a
    frozen move stays frozen on that surviving endpoint.  Returns
    (assignment over merged classes expanded to variables, number of
    coalesced moves, actual spills).
    """
    test_fn = DENSE_TESTS[test]
    build = graph.dense()
    work = build.copy()
    adj, deg = work.adj, work.deg
    rows = build.adj  # the build graph, for select
    origin = work.index  # variable -> its row in `rows`
    label = [str(v) for v in work.names]
    members: Dict[int, Set[Var]] = {i: {v} for i, v in enumerate(work.names)}
    # affinities by slot pair, in the build graph's order
    moves: Dict[FrozenSet[int], float] = {
        frozenset((origin[u], origin[v])): w for u, v, w in graph.affinities()
    }
    frozen: Set[FrozenSet[int]] = set()
    stack: List[int] = []  # removal order
    coalesced_moves = 0

    def remove(i: int) -> None:
        nonlocal moves
        work.remove_vertex(i)
        moves = {key: w for key, w in moves.items() if i not in key}
        stack.append(i)

    while work.alive:
        high = work.high_degree_mask(k)
        # 1. simplify: a non-move-related vertex of low degree
        related = 0
        for key in moves:
            if key not in frozen:
                for x in key:
                    related |= 1 << x
        low = work.alive & ~high & ~related
        if low:
            remove((low & -low).bit_length() - 1)
            tracer.count("chaitin.simplified")
            continue
        # 2. coalesce: a conservative move.  The brute-force test is an
        # absolute check ("is the merged graph greedy-k-colorable"), so
        # it is only meaningful when the current graph already is — the
        # paper's setting of coalescing after spilling.  Mid-spill we
        # fall back to the relative Briggs+George rules.
        round_test = test_fn
        if test == "brute" and not is_greedy_k_colorable(work, k):
            round_test = briggs_george_test
        pairs = [
            (w, *sorted(key, key=label.__getitem__)) for key, w in moves.items()
        ]
        pairs.sort(key=lambda t: (-t[0], label[t[1]], label[t[2]]))
        merged = False
        for _, a, b in pairs:
            pair = frozenset((a, b))
            if pair in frozen or adj[a] >> b & 1:
                continue
            tracer.count("moves.attempted")
            if round_test(work, a, b, k, high=high):
                s = work.add_vertex(work.names[a])
                work.merge_group([s, a, b])
                label.append(label[a])
                members[s] = members.pop(a) | members.pop(b)
                old, moves = moves, {}
                for key, w in old.items():
                    if key != pair:
                        key = frozenset(s if x in pair else x for x in key)
                        moves[key] = moves.get(key, 0.0) + w
                frozen = {
                    frozenset(s if x == a else x for x in key)
                    for key in frozen if b not in key
                }
                coalesced_moves += 1
                merged = True
                tracer.count("moves.coalesced")
                break
            tracer.count("moves.rejected")
        if merged:
            continue
        # 3. freeze: give up the cheapest move of a low-degree vertex
        freeze = next(
            (
                key
                for key, _ in sorted(moves.items(), key=lambda t: t[1])
                if key not in frozen and any(deg[x] < k for x in key)
            ),
            None,
        )
        if freeze is not None:
            frozen.add(freeze)
            tracer.count("chaitin.frozen_moves")
            continue
        # 4. potential spill: cheapest cost / degree ratio; reload
        # temporaries last (re-spilling them cannot reduce pressure)
        def spill_key(i: int) -> Tuple[bool, float, str]:
            temp = all(is_spill_temp(m) for m in members[i])
            cost = sum(costs.get(m, 1.0) for m in members[i])
            if spill_metric == "cost":
                metric = cost
            elif spill_metric == "degree":
                metric = -deg[i]
            else:  # cost/degree, Chaitin's classic
                metric = cost / max(1, deg[i])
            return (temp, metric, label[i])

        alive = (i for i in range(work.n) if work.alive >> i & 1)
        remove(min(alive, key=spill_key))
        tracer.count("chaitin.potential_spills")

    # select: colour merged classes in reverse removal order; a class
    # may not take a register held by a build-graph neighbour of any
    # of its members
    holders = [0] * k  # per register, the build-graph rows holding it
    assignment: Dict[Var, int] = {}
    actual_spills: List[Var] = []
    for i in reversed(stack):
        near = 0
        for m in members[i]:
            near |= rows[origin[m]]
        c = next((c for c in range(k) if not holders[c] & near), None)
        if c is None:
            actual_spills.extend(members[i])
            continue
        for m in members[i]:
            holders[c] |= 1 << origin[m]
            assignment[m] = c
    return assignment, coalesced_moves, actual_spills
