"""Dense bitset graph kernels: the integer-indexed fast path.

The dict-of-set :class:`~repro.graphs.graph.Graph` is the right *API*
for the coalescing algorithms — hashable vertex names, cheap merges,
obvious code — but its inner loops pay a hash lookup per neighbour.
This module is the dense counterpart: vertices are interned to the
integer range ``0..n-1`` (in insertion order, so the mapping is stable
and reproducible) and each adjacency set becomes one Python ``int``
used as a bitmask.  Neighbourhood algebra then runs word-wise —
``adj[u] & ~visited`` prunes an entire 64-bit span per machine
operation — and ``popcount`` replaces per-element counting.

Everything here is lossless with respect to the dict representation:
:meth:`DenseGraph.from_graph` / :meth:`DenseGraph.to_graph` round-trip
exactly, and each kernel computes the *same results* as a dict-of-set
reference kept in ``tests/reference/`` (same tie-breaking, same
verdicts), so the public dict-based API routes through this module
without changing observable results.  The equivalence is enforced by
property tests (``tests/test_dense.py``).

Strategies, dict-graph wrappers and verifier passes all read a graph's
one twin, :meth:`Graph.dense() <repro.graphs.graph.Graph.dense>`, kept
until the graph is mutated; its rows are tuples, so a kernel that
merges or removes works on a :meth:`DenseGraph.copy`.  The twin also
keeps its :func:`greedy_peel` per ``k``: the peel is confluent
(Section 2.2), so the frozen rows fix it.  So do they fix its clique
tree, with the MCS order it walks, which :meth:`DenseGraph.kept` holds
for :func:`~repro.graphs.chordal.dense_clique_tree`.

Work accounting: kernels count :data:`~repro.obs.names.EDGES_SCANNED`
for every adjacency element actually visited and
:data:`~repro.obs.names.WORDS_MERGED` for every machine word processed
by a mask operation.  Counts measure the size of data consumed — never
early exits — so they are exact across runs; ``repro bench snapshot``
records them and ``tests/test_dense.py`` checks that the dense kernels
do strictly less work than the references (see
``docs/PERFORMANCE.md``).
"""

from __future__ import annotations

from types import MappingProxyType
from typing import (
    Any, Callable, Dict, Iterator, List, Mapping, Optional, Sequence, Tuple,
)

from ..obs import NULL_TRACER, Tracer
from ..obs.names import EDGES_SCANNED, WORDS_MERGED
from .graph import Graph, Vertex

#: Bits per accounting word.  CPython long arithmetic works on 30-bit
#: digits internally, but 64 is the honest machine-word unit the
#: ``WORDS_MERGED`` counter is defined against.
WORD_BITS = 64


def _iter_bits(mask: int) -> Iterator[int]:
    """Yield the set-bit indices of ``mask`` in ascending order."""
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


def _popcount(mask: int) -> int:
    """Number of set bits of ``mask``."""
    return mask.bit_count()


class DenseGraph:
    """An undirected graph over interned integer vertices.

    ``names[i]`` is the original vertex behind index ``i`` and
    ``index[v]`` its inverse; interning follows insertion order of the
    source graph, so two conversions of the same graph agree.  ``adj[i]``
    is the neighbourhood of ``i`` as a bitmask, ``deg[i]`` a maintained
    popcount of it, and ``alive`` the bitmask of vertices not yet
    removed by a merge (merging never reindexes — the dead slot just
    empties, keeping indices stable for the whole run; a new vertex
    takes the next slot).  A graph's shared twin (:meth:`freeze`) holds
    ``adj`` and ``deg`` as tuples, so every mutator raises on it, and
    keeps its :func:`greedy_peel` results (:attr:`peels`) and the other
    facts its rows fix (:meth:`kept`).
    """

    __slots__ = ("names", "index", "adj", "deg", "alive", "words", "_peels",
                 "_kept")

    def __init__(self, names: Sequence[Vertex] = ()) -> None:
        self.names: List[Vertex] = list(names)
        self.index: Dict[Vertex, int] = {v: i for i, v in enumerate(self.names)}
        if len(self.index) != len(self.names):
            raise ValueError("duplicate vertex names")
        n = len(self.names)
        self.adj: List[int] = [0] * n
        self.deg: List[int] = [0] * n
        self.alive: int = (1 << n) - 1
        self.words: int = max(1, (n + WORD_BITS - 1) // WORD_BITS)
        self._peels: Optional[Dict[int, Tuple[Tuple[int, ...], int]]] = None
        self._kept: Optional[Dict[str, Any]] = None

    # ------------------------------------------------------------------
    # conversion
    # ------------------------------------------------------------------
    @classmethod
    def from_graph(cls, graph: Graph) -> "DenseGraph":
        """Intern ``graph`` (insertion order) into a dense twin.

        Each row is one ``sum`` over a precomputed ``{vertex: 1 << i}``
        map (the bits are distinct, so the sum is their OR) and its
        degree the neighbour-set size, with no per-neighbour shift.
        """
        names = list(graph.vertices)
        dense = cls(names)
        bit = {v: 1 << i for i, v in enumerate(names)}.__getitem__
        adj, deg = dense.adj, dense.deg
        for i, v in enumerate(names):
            nbrs = graph.neighbors_view(v)
            adj[i] = sum(map(bit, nbrs))
            deg[i] = len(nbrs)
        return dense

    def freeze(self) -> "DenseGraph":
        """Make this graph a shared twin, in place, and return it: ``adj``
        and ``deg`` become tuples, and :func:`greedy_peel` keeps its
        result per ``k`` from now on, :meth:`kept` its facts."""
        self.adj, self.deg = tuple(self.adj), tuple(self.deg)
        self._peels = {}
        self._kept = {}
        return self

    def kept(self, name: str, build: Callable[["DenseGraph"], Any]) -> Any:
        """``build(self)``, kept under ``name`` on a twin, whose frozen
        rows fix it (:func:`~repro.graphs.chordal.dense_clique_tree`
        keeps the clique tree so).  A mutable graph keeps nothing and
        calls ``build`` every time.  The result must be read-only."""
        kept = self._kept
        if kept is None:
            return build(self)
        if name not in kept:
            kept.setdefault(name, build(self))
        return kept[name]

    @property
    def peels(self) -> Optional[Mapping[int, Tuple[Tuple[int, ...], int]]]:
        """A twin's :func:`greedy_peel` results by ``k``, read-only;
        ``None`` on a mutable graph, which keeps none."""
        return None if self._peels is None else MappingProxyType(self._peels)

    def to_graph(self) -> Graph:
        """Materialize back to a dict-of-set :class:`Graph` (lossless)."""
        g = Graph(vertices=[self.names[i] for i in _iter_bits(self.alive)])
        for i in _iter_bits(self.alive):
            above = self.adj[i] >> (i + 1)
            for off in _iter_bits(above):
                g.add_edge(self.names[i], self.names[i + 1 + off])
        return g

    # ------------------------------------------------------------------
    # queries and mutation
    # ------------------------------------------------------------------
    @property
    def n(self) -> int:
        """Number of interned slots (including dead ones)."""
        return len(self.names)

    def num_alive(self) -> int:
        """Number of live vertices."""
        return _popcount(self.alive)

    def num_edges(self) -> int:
        """Number of undirected edges among live vertices."""
        return sum(self.deg[i] for i in _iter_bits(self.alive)) // 2

    def has_edge(self, i: int, j: int) -> bool:
        """True iff live vertices ``i`` and ``j`` are adjacent."""
        return bool(self.adj[i] >> j & 1)

    def add_edge(self, i: int, j: int) -> None:
        """Add the undirected edge ``(i, j)`` between live vertices."""
        if i == j:
            raise ValueError(f"self-loop on index {i}")
        if not self.adj[i] >> j & 1:
            self.adj[i] |= 1 << j
            self.adj[j] |= 1 << i
            self.deg[i] += 1
            self.deg[j] += 1

    def copy(self) -> "DenseGraph":
        """An independent, mutable copy sharing the (immutable) interning."""
        dup = DenseGraph.__new__(DenseGraph)
        dup.names = self.names
        dup.index = self.index
        dup.adj = list(self.adj)
        dup.deg = list(self.deg)
        dup.alive = self.alive
        dup.words = self.words
        dup._peels = None
        dup._kept = None
        return dup

    def high_degree_mask(self, k: int) -> int:
        """Bitmask of live vertices with degree ≥ ``k``."""
        mask = 0
        deg = self.deg
        for i in _iter_bits(self.alive):
            if deg[i] >= k:
                mask |= 1 << i
        return mask

    def merge_in_place(self, i: int, j: int) -> int:
        """Merge vertex ``j`` into ``i`` (the coalescing merge).

        ``i`` keeps its index and absorbs ``j``'s neighbourhood; ``j``
        dies.  Merging adjacent vertices is illegal.  Returns the
        bitmask of *common* neighbours — exactly the vertices whose
        degree dropped by one, which callers maintaining a
        degree-threshold mask need (see
        :func:`repro.coalescing.conservative.conservative_coalesce`).
        """
        adj, deg = self.adj, self.deg
        bi, bj = 1 << i, 1 << j
        if adj[i] & bj:
            raise ValueError(
                f"cannot merge interfering vertices "
                f"{self.names[i]!r}, {self.names[j]!r}"
            )
        if not (self.alive & bi and self.alive & bj):
            raise KeyError("both endpoints must be alive")
        common = adj[i] & adj[j]
        gained = adj[j] & ~adj[i]
        for w in _iter_bits(common):
            adj[w] &= ~bj
            deg[w] -= 1
        for w in _iter_bits(gained):
            adj[w] = (adj[w] | bi) & ~bj
        adj[i] |= gained
        deg[i] = _popcount(adj[i])
        adj[j] = 0
        deg[j] = 0
        self.alive &= ~bj
        return common

    def remove_vertex(self, i: int) -> None:
        """Remove live vertex ``i`` with its edges; its slot empties."""
        bi = 1 << i
        if not self.alive & bi:
            raise KeyError(f"vertex index {i} is not alive")
        adj, deg = self.adj, self.deg
        for w in _iter_bits(adj[i]):
            adj[w] &= ~bi
            deg[w] -= 1
        adj[i] = 0
        deg[i] = 0
        self.alive &= ~bi

    def add_vertex(self, name: Vertex) -> int:
        """Append an isolated live vertex named ``name``; return its index.

        A merged class re-entering last, as :meth:`Graph.merge_in_place`
        puts it, is ``add_vertex`` then :meth:`merge_group` into the new
        slot.  ``index`` maps ``name`` to the new slot.  ``names`` and
        ``index`` are replaced, not mutated, so copies sharing them are
        unaffected.
        """
        s = len(self.names)
        self.adj.append(0)
        self.deg.append(0)
        self.names = self.names + [name]
        self.index = {**self.index, name: s}
        self.alive |= 1 << s
        self.words = max(1, (s + WORD_BITS) // WORD_BITS)
        return s

    def merge_group(self, members: Sequence[int]) -> None:
        """Merge the live, pairwise non-adjacent ``members`` into
        ``members[0]``; the others die.

        One pass over the group's merged neighbourhood: each neighbour
        swaps its bits of the group for ``members[0]``'s, so a class of
        any size costs one row update per neighbour.
        """
        adj, deg = self.adj, self.deg
        keep = 1 << members[0]
        group = 0
        row = 0
        for m in members:
            group |= 1 << m
            row |= adj[m]
        if group & ~self.alive:
            raise KeyError("every member must be alive")
        if row & group:
            raise ValueError("cannot merge interfering vertices")
        absorbed = group ^ keep
        rest = row
        while rest:
            low = rest & -rest
            w = low.bit_length() - 1
            rest ^= low
            a = adj[w]
            adj[w] = (a & ~absorbed) | keep
            deg[w] += 1 - _popcount(a & group)
        for m in members[1:]:
            adj[m] = 0
            deg[m] = 0
        adj[members[0]] = row
        deg[members[0]] = _popcount(row)
        self.alive &= ~absorbed

    def split_group(self, members: Sequence[int], rows: Sequence[int]) -> None:
        """Undo a :meth:`merge_group` into ``members[0]``: that slot
        loses its edges, then each member comes back live with its row
        of ``rows`` (over live slots and no member), mirrored into its
        neighbours' rows, so every degree stays exact.
        """
        adj, deg = self.adj, self.deg
        keep = 1 << members[0]
        group = 0
        for m in members:
            group |= 1 << m
        if not self.alive & keep or group & self.alive & ~keep:
            raise KeyError("members[0] must be the only live member")
        if any(row & (group | ~self.alive) for row in rows):
            raise ValueError("a row must hold live non-members only")
        rest = adj[members[0]]
        while rest:
            low = rest & -rest
            w = low.bit_length() - 1
            adj[w] ^= keep
            deg[w] -= 1
            rest ^= low
        self.alive |= group
        for m, row in zip(members, rows):
            bit = 1 << m
            adj[m] = row
            deg[m] = _popcount(row)
            rest = row
            while rest:
                low = rest & -rest
                w = low.bit_length() - 1
                adj[w] |= bit
                deg[w] += 1
                rest ^= low


# ----------------------------------------------------------------------
# kernels
# ----------------------------------------------------------------------
def mcs_order(dense: DenseGraph, tracer: Tracer = NULL_TRACER) -> List[int]:
    """Maximum-cardinality search over the dense graph.

    The visited-neighbour counts are kept bit-sliced: ``planes[b]`` is
    the mask of the vertices whose count has bit ``b`` set.  A visit
    adds 1 to its unvisited neighbours (``adj[v] & unvisited``) by a
    ripple carry across the planes, so every edge is walked once
    instead of twice.  The next vertex filters the unvisited mask from
    the top plane down, keeping the vertices that have each bit when
    any does, and takes the lowest set bit of what is left: the
    highest count, then the smallest interned index.  That is the
    dict-of-set reference's tie-break, so the two produce *identical*
    orders.
    """
    counting = tracer.enabled
    planes: List[int] = []
    unvisited = dense.alive
    order: List[int] = []
    adj = dense.adj
    words = dense.words
    while unvisited:
        best = unvisited
        for plane in reversed(planes):
            top = best & plane
            if top:
                best = top
        low = best & -best
        unvisited ^= low
        v = low.bit_length() - 1
        order.append(v)
        carry = adj[v] & unvisited
        if counting:
            tracer.count(WORDS_MERGED, 2 * words)
            tracer.count(EDGES_SCANNED, _popcount(carry))
        b = 0
        while carry:
            if b == len(planes):
                planes.append(carry)
                break
            plane = planes[b]
            planes[b] = plane ^ carry
            carry &= plane
            b += 1
    return order


def greedy_coloring(
    dense: DenseGraph,
    order: Optional[Sequence[int]] = None,
    tracer: Tracer = NULL_TRACER,
) -> Dict[int, int]:
    """First-fit colouring along ``order`` (default: index order).

    ``order`` lists distinct vertices.  Keeps one bitmask per colour
    class, so first-fit is the first class with ``cls & adj[v] == 0``;
    colours are identical to the dict-of-set reference on the same
    order.  The work counted is the already-coloured neighbourhood
    (``adj[v] & colored``): E elements instead of 2E.
    """
    counting = tracer.enabled
    if order is None:
        order = list(_iter_bits(dense.alive))
    classes: List[int] = []
    colored = 0
    adj = dense.adj
    words = dense.words
    out: Dict[int, int] = {}
    for v in order:
        av = adj[v]
        if counting:
            tracer.count(WORDS_MERGED, words)
            tracer.count(EDGES_SCANNED, _popcount(av & colored))
            colored |= 1 << v
        c = 0
        for cls in classes:
            if not cls & av:
                break
            c += 1
        else:
            classes.append(0)
        classes[c] |= 1 << v
        out[v] = c
    return out


def greedy_elimination_order(
    dense: DenseGraph, k: int, tracer: Tracer = NULL_TRACER
) -> Tuple[List[int], bool]:
    """Chaitin's elimination scheme with threshold ``k`` (Section 2.2).

    Returns ``(order, success)`` like the dict-of-set reference; success
    is identical (the scheme is confluent), the order may differ in
    tie-breaking.  Each removal scans only the *remaining* neighbours.
    """
    if k < 0:
        raise ValueError(f"k must be non-negative, got {k}")
    counting = tracer.enabled
    adj = dense.adj
    words = dense.words
    remaining = dense.alive
    degree = list(dense.deg)
    worklist = [i for i in _iter_bits(dense.alive) if degree[i] < k]
    order: List[int] = []
    while worklist:
        v = worklist.pop()
        bv = 1 << v
        if not remaining & bv or degree[v] >= k:
            continue
        remaining &= ~bv
        order.append(v)
        nb = adj[v] & remaining
        if counting:
            tracer.count(WORDS_MERGED, 2 * words)
            tracer.count(EDGES_SCANNED, _popcount(nb))
        while nb:
            u = (nb & -nb).bit_length() - 1
            nb &= nb - 1
            d = degree[u] - 1
            degree[u] = d
            if d == k - 1:
                worklist.append(u)
    return order, remaining == 0


def greedy_peel(
    dense: DenseGraph, k: int, tracer: Tracer = NULL_TRACER
) -> Tuple[Tuple[int, ...], int]:
    """Chaitin's scheme as a round-based peel: ``(rounds, core)``.

    Each round removes every live vertex of degree < ``k`` at once, then
    only the survivors next to a removed vertex recount their degree,
    with one popcount of ``adj[u] & alive``.  ``rounds`` lists each
    round's removed vertices as a bitmask, in order: an elimination
    witness in which every vertex of a round had fewer than ``k`` live
    neighbours when the round began.  ``core`` is the bitmask of what is
    left, 0 iff greedy-k-colourable.  The scheme is confluent (Section
    2.2), so the core is exactly what :func:`greedy_elimination_order`
    leaves.  ``WORDS_MERGED`` counts each row OR and each recount AND;
    no adjacency element is visited one at a time, so no
    ``EDGES_SCANNED``.

    A graph's frozen twin (:meth:`~repro.graphs.graph.Graph.dense`)
    keeps the result per ``k`` (:attr:`DenseGraph.peels`): the first
    call peels and counts, later ones return the same tuple and count
    nothing.
    """
    if k < 0:
        raise ValueError(f"k must be non-negative, got {k}")
    peels = dense._peels
    if peels is not None and k in peels:
        return peels[k]
    peel = _peel(dense, k, tracer)
    if peels is not None:
        peels[k] = peel
    return peel


def _peel(
    dense: DenseGraph, k: int, tracer: Tracer
) -> Tuple[Tuple[int, ...], int]:
    """The :func:`greedy_peel` computation itself."""
    counting = tracer.enabled
    adj, words = dense.adj, dense.words
    alive = dense.alive
    rounds: List[int] = []
    # dead slots have degree 0; the alive mask drops them
    low = sum(1 << i for i, d in enumerate(dense.deg) if d < k) & alive
    while low:
        rounds.append(low)
        alive ^= low
        touched = 0
        removed = low
        while removed:
            bit = removed & -removed
            touched |= adj[bit.bit_length() - 1]
            removed ^= bit
        touched &= alive
        if counting:
            tracer.count(WORDS_MERGED, words * (_popcount(low) + _popcount(touched)))
        low = 0
        while touched:
            bit = touched & -touched
            if (adj[bit.bit_length() - 1] & alive).bit_count() < k:
                low |= bit
            touched ^= bit
    return tuple(rounds), alive


def greedy_core(dense: DenseGraph, k: int, tracer: Tracer = NULL_TRACER) -> int:
    """The k-core of the live graph as a bitmask: 0 iff greedy-k-colourable.

    The core :func:`greedy_peel` leaves, for callers that read only the
    verdict or the core.
    """
    return greedy_peel(dense, k, tracer=tracer)[1]


def is_greedy_k_colorable(
    dense: DenseGraph, k: int, tracer: Tracer = NULL_TRACER
) -> bool:
    """True iff the elimination scheme with threshold ``k`` empties G.

    Decided by the peel: the :func:`greedy_core` is empty.
    """
    return greedy_core(dense, k, tracer=tracer) == 0


def greedy_k_coloring(
    dense: DenseGraph, k: int, tracer: Tracer = NULL_TRACER
) -> Optional[Dict[int, int]]:
    """A k-colouring via the greedy scheme, or None if it gets stuck."""
    order, success = greedy_elimination_order(dense, k, tracer=tracer)
    if not success:
        return None
    coloring = greedy_coloring(dense, order=list(reversed(order)), tracer=tracer)
    if coloring and max(coloring.values()) >= k:
        raise AssertionError("greedy scheme produced an over-budget colour")
    return coloring


# ----------------------------------------------------------------------
# conservative tests (Section 4) on the dense representation
# ----------------------------------------------------------------------
def briggs_test(
    dense: DenseGraph,
    i: int,
    j: int,
    k: int,
    high: Optional[int] = None,
    tracer: Tracer = NULL_TRACER,
) -> bool:
    """Briggs' conservative test; verdict-identical to the dict version.

    ``high`` is the degree-≥-k bitmask (recomputed when omitted; loops
    testing many pairs should maintain it incrementally).  Significant
    neighbours are counted with one popcount over ``union & high``,
    corrected per-element only for common neighbours of degree exactly
    ``k`` (whose merged degree drops below the threshold).
    """
    counting = tracer.enabled
    adj, deg, words = dense.adj, dense.deg, dense.words
    bi, bj = 1 << i, 1 << j
    if adj[i] & bj:
        return False
    if high is None:
        high = dense.high_degree_mask(k)
        if counting:
            tracer.count(EDGES_SCANNED, dense.num_alive())
    union = (adj[i] | adj[j]) & ~(bi | bj)
    significant = _popcount(union & high)
    if counting:
        tracer.count(WORDS_MERGED, 4 * words)
    borderline = adj[i] & adj[j] & high
    if counting:
        tracer.count(WORDS_MERGED, 2 * words)
        tracer.count(EDGES_SCANNED, _popcount(borderline))
    for w in _iter_bits(borderline):
        if deg[w] == k:
            significant -= 1
    return significant < k


def george_test(
    dense: DenseGraph,
    i: int,
    j: int,
    k: int,
    high: Optional[int] = None,
    tracer: Tracer = NULL_TRACER,
) -> bool:
    """George's test (merge ``i`` into ``j``) as pure mask algebra.

    Safe iff no neighbour of ``i`` is simultaneously high-degree, not a
    neighbour of ``j``, and not ``j`` itself — one ANDNOT chain, zero
    per-element work.
    """
    counting = tracer.enabled
    adj, words = dense.adj, dense.words
    bi, bj = 1 << i, 1 << j
    if adj[i] & bj:
        return False
    if high is None:
        high = dense.high_degree_mask(k)
        if counting:
            tracer.count(EDGES_SCANNED, dense.num_alive())
    if counting:
        tracer.count(WORDS_MERGED, 3 * words)
    return not (adj[i] & high & ~adj[j] & ~bj)


def george_test_both(
    dense: DenseGraph,
    i: int,
    j: int,
    k: int,
    high: Optional[int] = None,
    tracer: Tracer = NULL_TRACER,
) -> bool:
    """George's test tried in both directions."""
    return george_test(dense, i, j, k, high=high, tracer=tracer) or george_test(
        dense, j, i, k, high=high, tracer=tracer
    )


def george_extended_test(
    dense: DenseGraph,
    i: int,
    j: int,
    k: int,
    high: Optional[int] = None,
    tracer: Tracer = NULL_TRACER,
) -> bool:
    """The Section-4 extension of George's rule (merge ``i`` into ``j``).

    A blocker ``t`` (high-degree neighbour of ``i`` unknown to ``j``)
    is forgiven when it is itself removable: fewer than ``k`` of *its*
    neighbours are high-degree in the merged graph.  There the merged
    vertex, of degree |N(i) ∪ N(j) \\ {i, j}|, stands in ``i``'s place,
    so ``t`` counts ``i`` as significant iff that merged degree is ≥ k —
    one popcount per blocker.
    """
    counting = tracer.enabled
    adj, words = dense.adj, dense.words
    bi, bj = 1 << i, 1 << j
    if adj[i] & bj:
        return False
    if high is None:
        high = dense.high_degree_mask(k)
        if counting:
            tracer.count(EDGES_SCANNED, dense.num_alive())
    blockers = adj[i] & high & ~adj[j] & ~bj
    if counting:
        tracer.count(WORDS_MERGED, 3 * words)
        tracer.count(EDGES_SCANNED, _popcount(blockers))
    if not blockers:
        return True
    if counting:
        tracer.count(WORDS_MERGED, 2 * words)
    merged_high = _popcount((adj[i] | adj[j]) & ~(bi | bj)) >= k
    others = high & ~bi
    for t in _iter_bits(blockers):
        if counting:
            tracer.count(WORDS_MERGED, words)
        if _popcount(adj[t] & others) + merged_high >= k:
            return False
    return True


def george_extended_test_both(
    dense: DenseGraph,
    i: int,
    j: int,
    k: int,
    high: Optional[int] = None,
    tracer: Tracer = NULL_TRACER,
) -> bool:
    """The extended George test in both directions."""
    return george_extended_test(
        dense, i, j, k, high=high, tracer=tracer
    ) or george_extended_test(dense, j, i, k, high=high, tracer=tracer)


def briggs_george_test(
    dense: DenseGraph,
    i: int,
    j: int,
    k: int,
    high: Optional[int] = None,
    tracer: Tracer = NULL_TRACER,
) -> bool:
    """The combined iterated-register-coalescing rule."""
    return briggs_test(dense, i, j, k, high=high, tracer=tracer) or george_test_both(
        dense, i, j, k, high=high, tracer=tracer
    )


def merged_core(
    dense: DenseGraph,
    i: int,
    j: int,
    k: int,
    within: Optional[int] = None,
    tracer: Tracer = NULL_TRACER,
) -> int:
    """The k-core of ``dense`` with ``j`` merged into ``i``; 0 accepts.

    The core is a bitmask over the merged graph's slots, ``i`` standing
    for the pair; it is 0 iff the merge keeps the graph
    greedy-k-colorable.

    With ``within``, only the subgraph those slots induce is peeled.  A
    vertex of an induced subgraph's k-core has k neighbours inside it,
    so that core lies inside the whole graph's: a non-zero answer
    refuses the merge exactly, while 0 decides nothing.  The merge runs
    on a flat list clone of the rows, with no per-vertex set copies.
    """
    if tracer.enabled:
        tracer.count(WORDS_MERGED, dense.n * dense.words)
    merged = dense.copy()
    merged.merge_in_place(i, j)
    if within is not None:
        # the induced subgraph: its slots stay alive, degrees count
        # their neighbours inside it
        alive = merged.alive & within
        if tracer.enabled:
            tracer.count(WORDS_MERGED, dense.words * _popcount(alive))
        adj, deg = merged.adj, merged.deg
        rest = alive
        while rest:
            low = rest & -rest
            v = low.bit_length() - 1
            deg[v] = (adj[v] & alive).bit_count()
            rest ^= low
        merged.alive = alive
    return _peel(merged, k, tracer)[1]


def brute_force_test(
    dense: DenseGraph,
    i: int,
    j: int,
    k: int,
    high: Optional[int] = None,
    tracer: Tracer = NULL_TRACER,
) -> bool:
    """Merge on a copy and re-check greedy-k-colorability.

    The verdict of one whole-graph :func:`merged_core`.

    This is the stateless form, for a caller testing pairs of a graph
    that changes between tests in other ways than merges (Chaitin's
    rounds remove vertices too).  A worklist that only merges keeps
    each refusal's core instead
    (:class:`~repro.coalescing.conservative.BruteWitnesses`).
    """
    if dense.adj[i] >> j & 1:
        return False
    return not merged_core(dense, i, j, k, tracer=tracer)


#: The conservative tests by name: the one table behind
#: :func:`~repro.coalescing.conservative.conservative_coalesce`, the
#: Chaitin allocator and the strategy names of the CLI and the engine.
DENSE_TESTS: Dict[str, Callable[..., bool]] = {
    "briggs": briggs_test,
    "george": george_test_both,
    "george_extended": george_extended_test_both,
    "briggs_george": briggs_george_test,
    "brute": brute_force_test,
}
