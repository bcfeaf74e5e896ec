"""Iterated Register Coalescing (George & Appel, TOPLAS 1996).

The classical framework the paper analyzes in Sections 1 and 4: a
worklist-driven interleaving of simplify / coalesce / freeze /
potential-spill over the interference graph, with Briggs' test between
temporaries and George's test against *precolored* machine registers —
the asymmetric usage the paper highlights ("George's rule is used in
[19] only to merge a vertex u with a precolored vertex v ... because
such a vertex never leads to a spill").

Every rule of the published pseudocode is kept — worklists, move sets,
alias chains, and DecrementDegree's trigger when Combine's AddEdge
lifts a neighbour of degree k−1 to k and takes it back down — but the
round runs on a mutable list copy of the graph's dense twin
(:meth:`Graph.dense() <repro.graphs.graph.Graph.dense>`): worklists and
move sets are bitmasks, a degree is ``popcount(adj & live)``, Briggs'
and George's tests are one mask expression each, and colouring keeps
one mask per colour class.  The choices the pseudocode leaves open are
fixed, so a result never depends on the interpreter's hash seed:
simplify and freeze take the node with the smallest ``str``, coalesce
the move whose ``sorted(map(str, move))`` is smallest, a coalesced
move's endpoint with the smaller ``str`` survives unless the other is
precoloured, and coalesced nodes are coloured in ``str`` order.  The
dict-of-set transcription in ``tests/reference/irc.py`` is the oracle
the tests hold this round to.

Spill code rewriting is the caller's business (see
:func:`repro.allocator.chaitin_allocate` for a full loop).  A
precolouring must be in range and proper (no two adjacent vertices
pinned to one register); :func:`irc_allocate` raises ``ValueError``
otherwise.  A ``george_any`` switch applies George's test between any
two nodes — the paper's suggested strengthening when spilling was done
beforehand — so the difference is measurable.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from heapq import heapify, heappop, heappush
from typing import Dict, List, Optional

from ..graphs.dense import _iter_bits
from ..graphs.graph import Vertex
from ..graphs.interference import InterferenceGraph
from ..obs import NULL_TRACER, Tracer


@dataclass
class IRCResult:
    """Outcome of one IRC colouring round."""

    colors: Dict[Vertex, int]
    spilled: List[Vertex]
    coalesced_moves: int
    frozen_moves: int
    #: representative each coalesced node was merged into
    alias: Dict[Vertex, Vertex] = field(default_factory=dict)

    @property
    def success(self) -> bool:
        """True iff the run coloured everything without spilling."""
        return not self.spilled


class _IRC:
    """One round's state over the twin's vertex indices.

    ``live`` holds the nodes neither on the select stack nor coalesced,
    ``high`` the live, non-precoloured nodes of degree ≥ k (kept exact: a
    degree only falls when a neighbour leaves ``live`` and only rises
    in Combine), and move ``m`` is bit ``m`` of every move set, moves
    numbered in ``sorted(map(str, move))`` order so the lowest set bit
    is the move to try next.
    """

    def __init__(
        self,
        graph: InterferenceGraph,
        k: int,
        precolored: Dict[Vertex, int],
        costs: Dict[Vertex, float],
        george_any: bool,
        tracer: Tracer = NULL_TRACER,
    ) -> None:
        twin = graph.dense()
        names, index = twin.names, twin.index
        n = len(names)
        self.names = names
        self.k = k
        self.george_any = george_any
        self.tracer = tracer
        self.costs = costs
        self.adj: List[int] = list(twin.adj)
        self.order = sorted(range(n), key=lambda i: str(names[i]))
        self.rank = [0] * n
        for r, i in enumerate(self.order):
            self.rank[i] = r

        self.color: Dict[int, int] = {}
        pre = 0
        for v, c in precolored.items():
            i = index[v]
            self.color[i] = c
            pre |= 1 << i
        self.pre = pre

        moves = sorted(
            (str(u), str(v), index[u], index[v])
            for u, v, _ in graph.affinities()
            if not twin.adj[index[u]] >> index[v] & 1
        )
        self.move_x = [m[2] for m in moves]
        self.move_y = [m[3] for m in moves]
        self.move_list = [0] * n
        for m, (_, _, x, y) in enumerate(moves):
            self.move_list[x] |= 1 << m
            self.move_list[y] |= 1 << m
        self.worklist_moves = (1 << len(moves)) - 1
        self.active_moves = 0
        self.coalesced_moves = 0
        self.frozen_moves = 0

        self.live = twin.alive
        self.coalesced_nodes = 0
        self.alias = list(range(n))
        self.select_stack: List[int] = []
        self.spilled_nodes: List[int] = []

        self.high = self.simplify_worklist = self.freeze_worklist = 0
        self.spill_worklist = 0
        for i, d in enumerate(twin.deg):
            bit = 1 << i
            if pre & bit:
                continue
            if d >= k:
                self.high |= bit
                self.spill_worklist |= bit
            elif self.move_list[i]:
                self.freeze_worklist |= bit
            else:
                self.simplify_worklist |= bit
        # lazy min-heaps of str ranks: every member of a worklist has an
        # entry; an entry whose node has left the worklist is stale
        self.simplify_heap, self.freeze_heap = (
            [self.rank[i] for i in _iter_bits(mask)]
            for mask in (self.simplify_worklist, self.freeze_worklist))
        heapify(self.simplify_heap)
        heapify(self.freeze_heap)

    # ------------------------------------------------------------------
    def _pop_min(self, heap: List[int], worklist: int) -> int:
        """The member of ``worklist`` with the smallest ``str`` rank,
        its entry (and any stale ones before it) popped from ``heap``."""
        v = self.order[heappop(heap)]
        while not worklist >> v & 1:
            v = self.order[heappop(heap)]
        return v

    def _push_simplify(self, v: int) -> None:
        if not self.simplify_worklist >> v & 1:
            self.simplify_worklist |= 1 << v
            heappush(self.simplify_heap, self.rank[v])

    def _push_freeze(self, v: int) -> None:
        if not self.freeze_worklist >> v & 1:
            self.freeze_worklist |= 1 << v
            heappush(self.freeze_heap, self.rank[v])

    def _move_related(self, v: int) -> bool:
        return bool(
            self.move_list[v] & (self.active_moves | self.worklist_moves)
        )

    def _lowered(self, v: int) -> None:
        """DecrementDegree's transition: ``v``'s degree fell from k to
        k − 1, so its moves and its neighbours' moves are enabled and
        it leaves the spill worklist."""
        if self.active_moves:
            move_list = self.move_list
            moves = move_list[v]
            nbrs = self.adj[v] & self.live
            while nbrs:
                low = nbrs & -nbrs
                moves |= move_list[low.bit_length() - 1]
                nbrs ^= low
            moves &= self.active_moves
            self.active_moves ^= moves
            self.worklist_moves |= moves
        self.spill_worklist &= ~(1 << v)
        if self._move_related(v):
            self._push_freeze(v)
        else:
            self._push_simplify(v)

    def _recount(self, mask: int) -> None:
        """Drop from ``high`` the nodes of ``mask`` ∩ ``high`` whose
        degree fell below k, each through :meth:`_lowered`."""
        adj, live, k = self.adj, self.live, self.k
        mask &= self.high
        while mask:
            low = mask & -mask
            t = low.bit_length() - 1
            mask ^= low
            if (adj[t] & live).bit_count() < k:
                self.high ^= low
                self._lowered(t)

    # ------------------------------------------------------------------
    def simplify(self) -> None:
        """Remove one low-degree, move-unrelated node onto the stack."""
        v = self._pop_min(self.simplify_heap, self.simplify_worklist)
        bit = 1 << v
        self.simplify_worklist ^= bit
        self.select_stack.append(v)
        self.live &= ~bit
        self.tracer.count("irc.simplified")
        self._recount(self.adj[v] & self.live)

    # ------------------------------------------------------------------
    def _get_alias(self, v: int) -> int:
        while self.coalesced_nodes >> v & 1:
            v = self.alias[v]
        return v

    def _add_worklist(self, v: int) -> None:
        bit = 1 << v
        if not (self.pre | self.high) & bit and not self._move_related(v):
            self.freeze_worklist &= ~bit
            self._push_simplify(v)

    def coalesce(self) -> None:
        """Try one move with the George, then Briggs, conservative test."""
        tracer = self.tracer
        move = self.worklist_moves & -self.worklist_moves
        self.worklist_moves ^= move
        m = move.bit_length() - 1
        x = self._get_alias(self.move_x[m])
        y = self._get_alias(self.move_y[m])
        pre = self.pre
        if pre >> y & 1:
            x, y = y, x
        u, v = x, y  # u may be precolored; v never is (unless both)
        if u == v:
            self.coalesced_moves |= move
            self._add_worklist(u)
            tracer.count("moves.transitive")
            return
        tracer.count("queries.interference")
        adj = self.adj
        if pre >> v & 1 or adj[u] >> v & 1:
            # constrained: the move leaves the worklists for good
            self._add_worklist(u)
            self._add_worklist(v)
            tracer.count("moves.constrained")
            return
        tracer.count("moves.attempted")
        live, high = self.live, self.high
        u_pre = pre >> u & 1
        george_ok = (u_pre or self.george_any) and not (
            adj[v] & live & high & ~adj[u]
        )
        briggs_ok = not u_pre and (
            (adj[u] | adj[v]) & live & (high | pre)
        ).bit_count() < self.k
        if george_ok or briggs_ok:
            self.coalesced_moves |= move
            self._combine(u, v)
            self._add_worklist(u)
            tracer.count("moves.coalesced")
            tracer.count(
                "irc.coalesced_by_george" if george_ok else "irc.coalesced_by_briggs"
            )
        else:
            # deferred, not refused for good: the move may re-enable
            self.active_moves |= move
            tracer.count("moves.rejected")

    def _combine(self, u: int, v: int) -> None:
        bv, bu = 1 << v, 1 << u
        self.freeze_worklist &= ~bv
        self.spill_worklist &= ~bv
        self.coalesced_nodes |= bv
        self.live &= ~bv
        self.alias[v] = u
        move_list = self.move_list
        move_list[u] |= move_list[v]
        enabled = move_list[v] & self.active_moves
        self.active_moves ^= enabled
        self.worklist_moves |= enabled
        adj, live = self.adj, self.live
        nbrs = adj[v] & live
        common = nbrs & adj[u]
        new = nbrs ^ common
        adj[u] |= new
        for t in _iter_bits(new):
            adj[t] |= bu
        # a common neighbour loses v: one of degree k falls to k − 1
        self._recount(common)
        # AddEdge lifts a new neighbour of degree k − 1 to k and
        # DecrementDegree takes it back down, enabling its moves
        for t in _iter_bits(new & ~(self.high | self.pre)):
            if (adj[t] & live).bit_count() == self.k - 1:
                self._lowered(t)
        if not self.pre & bu and (adj[u] & live).bit_count() >= self.k:
            self.high |= bu
            if self.freeze_worklist & bu:
                self.freeze_worklist ^= bu
                self.spill_worklist |= bu

    # ------------------------------------------------------------------
    def freeze(self) -> None:
        """Give up the moves of one low-degree node so it can simplify."""
        v = self._pop_min(self.freeze_heap, self.freeze_worklist)
        self.freeze_worklist ^= 1 << v
        self._push_simplify(v)
        self.tracer.count("irc.freezes")
        self._freeze_moves(v)

    def _freeze_moves(self, v: int) -> None:
        moves = self.move_list[v] & (self.active_moves | self.worklist_moves)
        while moves:
            move = moves & -moves
            moves ^= move
            self.active_moves &= ~move
            self.worklist_moves &= ~move
            self.frozen_moves |= move
            m = move.bit_length() - 1
            a = self._get_alias(self.move_x[m])
            other = self._get_alias(self.move_y[m]) if a == v else a
            bit = 1 << other
            if not (self.pre | self.high) & bit \
                    and not self._move_related(other):
                self.spill_worklist &= ~bit
                self.freeze_worklist &= ~bit
                self._push_simplify(other)

    # ------------------------------------------------------------------
    def select_spill(self) -> None:
        """Optimistically push the cheapest spill candidate."""
        adj, live, names, rank = self.adj, self.live, self.names, self.rank
        v = min(
            _iter_bits(self.spill_worklist),
            key=lambda i: (
                self.costs.get(names[i], 1.0)
                / max(1, (adj[i] & live).bit_count()),
                rank[i],
            ),
        )
        self.spill_worklist ^= 1 << v
        self._push_simplify(v)
        self.tracer.count("irc.spill_candidates")
        self._freeze_moves(v)

    # ------------------------------------------------------------------
    def assign_colors(self) -> None:
        """Pop the stack, colouring each node (or marking it spilled)."""
        k, adj, color = self.k, self.adj, self.color
        classes = [0] * k
        for i, c in color.items():
            classes[c] |= 1 << i
        coalesced = self.coalesced_nodes
        while self.select_stack:
            v = self.select_stack.pop()
            merged = adj[v] & coalesced
            nbrs = adj[v] ^ merged
            for t in _iter_bits(merged):
                nbrs |= 1 << self._get_alias(t)
            for c in range(k):
                if not nbrs & classes[c]:
                    color[v] = c
                    classes[c] |= 1 << v
                    break
            else:
                self.spilled_nodes.append(v)
        for v in self._coalesced_in_rank_order():
            rep = self._get_alias(v)
            if rep in color:
                color[v] = color[rep]
            else:
                self.spilled_nodes.append(v)

    def _coalesced_in_rank_order(self) -> List[int]:
        return sorted(_iter_bits(self.coalesced_nodes),
                      key=self.rank.__getitem__)

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
        names = self.names
        return IRCResult(
            colors={names[i]: c for i, c in self.color.items()},
            spilled=[names[i] for i in self.spilled_nodes],
            coalesced_moves=self.coalesced_moves.bit_count(),
            frozen_moves=self.frozen_moves.bit_count(),
            alias={
                names[v]: names[self._get_alias(v)]
                for v in self._coalesced_in_rank_order()
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
    """One round of iterated register coalescing on an interference
    graph.

    ``precolored`` pins machine registers (infinite degree, never
    simplified or spilled); it must be in range and proper, or
    ``ValueError`` is raised.  ``george_any`` extends George's test from
    precolored-only (the published algorithm) to any pair (the paper's
    §4 suggestion for post-spilling use).  Returns colours, potential
    spills that became actual (uncolourable) and move statistics.
    """
    if k <= 0:
        raise ValueError("need at least one register")
    precolored = dict(precolored or {})
    for v, c in precolored.items():
        if not 0 <= c < k:
            raise ValueError(f"precoloured register {c} out of range")
        if v not in graph:
            raise ValueError(f"precoloured vertex {v!r} not in graph")
    for v, c in precolored.items():
        for t in graph.neighbors_view(v):
            if precolored.get(t) == c:
                raise ValueError(
                    f"precoloured vertices {v!r} and {t!r} interfere "
                    f"but share register {c}")
    return _IRC(
        graph, k, precolored, dict(costs or {}), george_any, tracer=tracer
    ).run()


def irc_coalescing_result(
    graph: InterferenceGraph,
    k: int,
    precolored: Optional[Dict[Vertex, int]] = None,
    george_any: bool = False,
    tracer: Tracer = NULL_TRACER,
) -> CoalescingResult:
    """Run IRC and express its coalescing decisions as a
    :class:`~repro.coalescing.base.CoalescingResult` (so IRC slots into
    the strategy-comparison and CLI machinery)."""
    from ..coalescing.base import CoalescingResult
    from ..graphs.interference import Coalescing

    result = irc_allocate(
        graph, k, precolored=precolored, george_any=george_any, tracer=tracer
    )
    coalescing = Coalescing(graph)
    for v, rep in result.alias.items():
        coalescing.union(v, rep)
    return CoalescingResult(
        graph=graph, coalescing=coalescing,
        strategy="irc",
    )
