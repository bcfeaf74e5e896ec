"""The dict-of-set iterated register coalescing round: the test oracle
for :mod:`repro.allocator.irc`.

George and Appel's published worklists transcribed on sets of vertices
and sets of frozenset moves, with the two choices the dense round fixes
made the same way: a coalesced move's endpoint with the smaller ``str``
survives unless the other endpoint is precoloured, and coalesced nodes
take their representative's colour in ``str`` order.  The dense round
must return the same :class:`~repro.allocator.irc.IRCResult` and count
the same ``irc.*``, ``moves.*`` and ``queries.*`` events.
"""

from __future__ import annotations

from typing import Dict, FrozenSet, List, Optional, Set

from repro.allocator.irc import IRCResult
from repro.graphs.graph import Vertex
from repro.graphs.interference import InterferenceGraph
from repro.obs import NULL_TRACER, Tracer


class _IRC:
    def __init__(
        self,
        graph: InterferenceGraph,
        k: int,
        precolored: Dict[Vertex, int],
        costs: Dict[Vertex, float],
        george_any: bool,
        tracer: Tracer = NULL_TRACER,
    ) -> None:
        self.k = k
        self.george_any = george_any
        self.tracer = tracer
        self.costs = costs
        self.precolored: Set[Vertex] = set(precolored)
        self.color: Dict[Vertex, int] = dict(precolored)

        self.adj: Dict[Vertex, Set[Vertex]] = {
            v: set() for v in graph.vertices
        }
        self.degree: Dict[Vertex, int] = {v: 0 for v in graph.vertices}
        for u, v in graph.edges():
            self._add_edge(u, v)

        # move sets, keyed by the unordered pair
        self.worklist_moves: Set[FrozenSet[Vertex]] = set()
        self.active_moves: Set[FrozenSet[Vertex]] = set()
        self.coalesced_moves: Set[FrozenSet[Vertex]] = set()
        self.constrained_moves: Set[FrozenSet[Vertex]] = set()
        self.frozen_moves: Set[FrozenSet[Vertex]] = set()
        self.move_list: Dict[Vertex, Set[FrozenSet[Vertex]]] = {
            v: set() for v in graph.vertices
        }
        for u, v, _ in graph.affinities():
            if u == v or graph.has_edge(u, v):
                continue
            move = frozenset((u, v))
            self.worklist_moves.add(move)
            self.move_list[u].add(move)
            self.move_list[v].add(move)

        self.alias: Dict[Vertex, Vertex] = {}
        self.coalesced_nodes: Set[Vertex] = set()
        self.select_stack: List[Vertex] = []
        self.on_stack: Set[Vertex] = set()
        self.spilled_nodes: List[Vertex] = []

        self.simplify_worklist: Set[Vertex] = set()
        self.freeze_worklist: Set[Vertex] = set()
        self.spill_worklist: Set[Vertex] = set()
        for v in graph.vertices:
            if v in self.precolored:
                continue
            if self.degree[v] >= k:
                self.spill_worklist.add(v)
            elif self._move_related(v):
                self.freeze_worklist.add(v)
            else:
                self.simplify_worklist.add(v)

    # ------------------------------------------------------------------
    def _add_edge(self, u: Vertex, v: Vertex) -> None:
        if u == v or v in self.adj[u]:
            return
        self.adj[u].add(v)
        self.adj[v].add(u)
        # precolored nodes have conceptually infinite degree
        if u not in self.precolored:
            self.degree[u] += 1
        if v not in self.precolored:
            self.degree[v] += 1

    def _node_moves(self, v: Vertex) -> Set[FrozenSet[Vertex]]:
        return self.move_list[v] & (self.active_moves | self.worklist_moves)

    def _move_related(self, v: Vertex) -> bool:
        return bool(self._node_moves(v))

    def _adjacent(self, v: Vertex) -> List[Vertex]:
        return [
            u
            for u in self.adj[v]
            if u not in self.on_stack and u not in self.coalesced_nodes
        ]

    def _enable_moves(self, nodes) -> None:
        for n in nodes:
            for move in list(self._node_moves(n) & self.active_moves):
                self.active_moves.discard(move)
                self.worklist_moves.add(move)

    def _decrement_degree(self, v: Vertex) -> None:
        if v in self.precolored:
            return
        d = self.degree[v]
        self.degree[v] = d - 1
        if d == self.k:
            self._enable_moves([v] + self._adjacent(v))
            self.spill_worklist.discard(v)
            if self._move_related(v):
                self.freeze_worklist.add(v)
            else:
                self.simplify_worklist.add(v)

    # ------------------------------------------------------------------
    def simplify(self) -> None:
        """Remove one low-degree, move-unrelated node onto the stack."""
        v = min(self.simplify_worklist, key=str)
        self.simplify_worklist.discard(v)
        self.select_stack.append(v)
        self.on_stack.add(v)
        self.tracer.count("irc.simplified")
        for u in self._adjacent(v):
            self._decrement_degree(u)

    # ------------------------------------------------------------------
    def _get_alias(self, v: Vertex) -> Vertex:
        while v in self.coalesced_nodes:
            v = self.alias[v]
        return v

    def _add_worklist(self, v: Vertex) -> None:
        if (
            v not in self.precolored
            and not self._move_related(v)
            and self.degree[v] < self.k
        ):
            self.freeze_worklist.discard(v)
            self.simplify_worklist.add(v)

    def _ok(self, t: Vertex, r: Vertex) -> bool:
        """George's per-neighbour condition for merging into r."""
        return (
            self.degree[t] < self.k
            or t in self.precolored
            or t in self.adj[r]
        )

    def _conservative(self, nodes) -> bool:
        """Briggs' test over the combined neighbourhood."""
        significant = 0
        for n in nodes:
            if n in self.precolored or self.degree[n] >= self.k:
                significant += 1
        return significant < self.k

    def coalesce(self) -> None:
        """Try one move with the George, then Briggs, conservative test."""
        move = min(self.worklist_moves, key=lambda m: sorted(map(str, m)))
        self.worklist_moves.discard(move)
        # the endpoint with the smaller str survives unless the other
        # is precoloured: unpacking the frozenset would let the hash
        # seed pick the direction
        x, y = sorted(move, key=str)
        x, y = self._get_alias(x), self._get_alias(y)
        if y in self.precolored:
            x, y = y, x
        u, v = x, y  # u may be precolored; v never is (unless both)
        if u == v:
            self.coalesced_moves.add(move)
            self._add_worklist(u)
            self.tracer.count("moves.transitive")
            return
        self.tracer.count("queries.interference")
        if v in self.precolored or v in self.adj[u]:
            self.constrained_moves.add(move)
            self._add_worklist(u)
            self._add_worklist(v)
            self.tracer.count("moves.constrained")
            return
        self.tracer.count("moves.attempted")
        george_applicable = u in self.precolored or self.george_any
        george_ok = george_applicable and all(
            self._ok(t, u) for t in self._adjacent(v)
        )
        briggs_ok = u not in self.precolored and self._conservative(
            set(self._adjacent(u)) | set(self._adjacent(v))
        )
        if george_ok or briggs_ok:
            self.coalesced_moves.add(move)
            self._combine(u, v)
            self._add_worklist(u)
            self.tracer.count("moves.coalesced")
            self.tracer.count(
                "irc.coalesced_by_george" if george_ok else "irc.coalesced_by_briggs"
            )
        else:
            # deferred, not refused for good: the move may re-enable
            self.active_moves.add(move)
            self.tracer.count("moves.rejected")

    def _combine(self, u: Vertex, v: Vertex) -> None:
        self.freeze_worklist.discard(v)
        self.spill_worklist.discard(v)
        self.coalesced_nodes.add(v)
        self.alias[v] = u
        self.move_list[u] |= self.move_list[v]
        self._enable_moves([v])
        for t in self._adjacent(v):
            self._add_edge(t, u)
            self._decrement_degree(t)
        if (
            u not in self.precolored
            and self.degree[u] >= self.k
            and u in self.freeze_worklist
        ):
            self.freeze_worklist.discard(u)
            self.spill_worklist.add(u)

    # ------------------------------------------------------------------
    def freeze(self) -> None:
        """Give up the moves of one low-degree node so it can simplify."""
        v = min(self.freeze_worklist, key=str)
        self.freeze_worklist.discard(v)
        self.simplify_worklist.add(v)
        self.tracer.count("irc.freezes")
        self._freeze_moves(v)

    def _freeze_moves(self, v: Vertex) -> None:
        for move in list(self._node_moves(v)):
            self.active_moves.discard(move)
            self.worklist_moves.discard(move)
            self.frozen_moves.add(move)
            (a, b) = move
            other = self._get_alias(b) if self._get_alias(a) == self._get_alias(v) else self._get_alias(a)
            if (
                other not in self.precolored
                and not self._move_related(other)
                and self.degree[other] < self.k
            ):
                self.spill_worklist.discard(other)
                self.freeze_worklist.discard(other)
                self.simplify_worklist.add(other)

    # ------------------------------------------------------------------
    def select_spill(self) -> None:
        """Optimistically push the cheapest spill candidate."""
        v = min(
            self.spill_worklist,
            key=lambda x: (
                self.costs.get(x, 1.0) / max(1, self.degree[x]),
                str(x),
            ),
        )
        self.spill_worklist.discard(v)
        self.simplify_worklist.add(v)
        self.tracer.count("irc.spill_candidates")
        self._freeze_moves(v)

    # ------------------------------------------------------------------
    def assign_colors(self) -> None:
        """Pop the stack, colouring each node (or marking it spilled)."""
        while self.select_stack:
            v = self.select_stack.pop()
            self.on_stack.discard(v)
            forbidden = set()
            for t in self.adj[v]:
                t = self._get_alias(t)
                if t in self.color:
                    forbidden.add(self.color[t])
            available = [c for c in range(self.k) if c not in forbidden]
            if not available:
                self.spilled_nodes.append(v)
            else:
                self.color[v] = available[0]
        for v in sorted(self.coalesced_nodes, key=str):
            rep = self._get_alias(v)
            if rep in self.color:
                self.color[v] = self.color[rep]
            else:
                self.spilled_nodes.append(v)

    # ------------------------------------------------------------------
    def run(self) -> IRCResult:
        """Drive the worklists to exhaustion and return the result."""
        with self.tracer.span("irc/worklists"):
            while (
                self.simplify_worklist
                or self.worklist_moves
                or self.freeze_worklist
                or self.spill_worklist
            ):
                if self.simplify_worklist:
                    self.simplify()
                elif self.worklist_moves:
                    self.coalesce()
                elif self.freeze_worklist:
                    self.freeze()
                else:
                    self.select_spill()
        with self.tracer.span("irc/select"):
            self.assign_colors()
        self.tracer.count("irc.actual_spills", len(self.spilled_nodes))
        return IRCResult(
            colors=dict(self.color),
            spilled=list(self.spilled_nodes),
            coalesced_moves=len(self.coalesced_moves),
            frozen_moves=len(self.frozen_moves),
            alias={
                v: self._get_alias(v)
                for v in sorted(self.coalesced_nodes, key=str)
            },
        )


def irc_allocate(
    graph: InterferenceGraph,
    k: int,
    precolored: Optional[Dict[Vertex, int]] = None,
    costs: Optional[Dict[Vertex, float]] = None,
    george_any: bool = False,
    tracer: Tracer = NULL_TRACER,
) -> IRCResult:
    """One IRC round on dict sets, with the arguments of
    :func:`repro.allocator.irc.irc_allocate` (which validates them)."""
    return _IRC(
        graph, k, dict(precolored or {}), dict(costs or {}), george_any,
        tracer=tracer,
    ).run()
