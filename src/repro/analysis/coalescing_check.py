"""Coalescing and allocation translation-validation passes.

These passes treat a coalescing or a register allocation as a
*translation* whose output must be re-validated against its input, in
the spirit of translation validation: nothing the producing algorithm
claims is trusted, everything is recomputed from the original graph or
function.

Coalescing (kind ``coalescing``, subject :class:`CoalescingClaim`):

* ``coalescing-validity`` — the partition is well formed (classes are
  disjoint and cover exactly the vertex set, ``COAL002``) and no class
  contains two interfering vertices (``COAL001``), the defining
  property of the paper's coalescing ``f``;
* ``coalescing-ledger`` — the strategy's bookkeeping matches the
  partition: every affinity reported as coalesced really has both
  endpoints in one class (``COAL003``), and externally claimed
  aggregates (residual weight, coalesced weight, coalesced count)
  match what one walk of the partition's uncoalesced affinities
  yields (``COAL005``);
* ``coalescing-conservative`` — for strategies that claim
  conservativeness, the quotient graph :math:`G_f` is
  greedy-k-colorable (``COAL004``).  The quotient is built on a copy of
  the claim graph's dense twin, one ``merge_group`` per multi-member
  class, and peeled once by :func:`repro.graphs.dense.greedy_peel` (a
  partition that merges nothing reads the twin and the peel it keeps); a
  success is **re-certified** by replaying the peel's rounds on the
  quotient's rows (:func:`repro.analysis.certificates.
  verify_elimination_rounds`) rather than assumed.  This is the
  budget-heavy pass: it threads the context budget so campaign-time
  verification degrades deterministically.

The coalescing passes read the claim graph's dense twin
(:meth:`~repro.graphs.graph.Graph.dense`), built once per graph and
shared with the strategy that produced the claim, and the twin's peel
per ``k``, and they read the partition as one
:class:`~repro.graphs.interference.Coalescing`, which lives on the
twin's slots: the verifier builds the payload's itself, and a claim's
own is re-read from its classes into a fresh one once per run; the
allocation passes share one
:class:`~repro.intervals.linear_scan.CodeFacts` of the final code —
one liveness solve, one set of interference rows, one set of live
intervals — through the context's fact memo
(:meth:`AnalysisContext.fact`).  What they read of the code alone —
the non-slot mask (``CodeFacts.nonslot``) and the variable set
ALLOC004 checks spills against (``CodeFacts.variable_set``) — lives on
those facts, so the engine's memoised facts of a final code derive it
once per process; only the walks that read the assignment run per
result.

Allocation (kind ``allocation``, duck-typed subject with ``function``,
``assignment``, ``k``, ``spilled`` attributes — i.e. an
:class:`repro.allocator.chaitin.AllocationResult`):

* ``allocation-validity`` — interfering variables never share a
  register (``ALLOC001``), registers lie in ``0..k-1`` (``ALLOC002``),
  every live non-spilled variable is assigned (``ALLOC003``);
* ``allocation-spill`` — spill bookkeeping is intact: variables listed
  as spilled no longer appear in the final code, and memory slots
  never receive registers (``ALLOC004``).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import (
    Any, Callable, Dict, Iterator, List, Mapping, Optional,
    Sequence, Set, Tuple,
)

from ..allocator.spill import is_memory_slot
from ..engine.tasks import GREEDY, STRATEGY_TABLE
from ..graphs.dense import DenseGraph, greedy_core, greedy_peel
from ..graphs.interference import Coalescing, InterferenceGraph
from ..intervals.linear_scan import CodeFacts
from ..ir.cfg import Function
from .certificates import verify_elimination_rounds
from .diagnostics import Diagnostic
from .registry import AnalysisContext, analysis_pass

__all__ = [
    "CoalescingClaim",
    "claim_from_result",
    "is_greedy_contract",
]


def is_greedy_contract(strategy: str) -> bool:
    """True iff ``strategy``'s :data:`repro.engine.tasks.STRATEGY_TABLE`
    row promises a greedy-k-colorable quotient (``COAL004``); an
    unknown name raises ``KeyError``, never defaults."""
    return STRATEGY_TABLE[strategy].contract == GREEDY


@dataclass
class CoalescingClaim:
    """What a coalescing strategy claims, packaged for validation.

    The partition is ``coalescing``, re-read from its classes before it
    is checked, or ``partition`` when the verifier built it itself
    (:func:`repro.analysis.engine_check.certify_payload`).
    ``conservative`` marks strategies whose contract includes keeping
    the quotient greedy-k-colorable (:func:`is_greedy_contract`);
    ``coalesced`` is the strategy's own list of coalesced
    affinities; ``expected`` optionally carries externally recorded
    aggregates (e.g. a cached task payload) to cross-check.
    """

    graph: InterferenceGraph
    coalescing: Optional[Coalescing] = None
    k: int = 0
    conservative: bool = False
    coalesced: Sequence[Tuple[Any, Any, float]] = field(default_factory=list)
    expected: Optional[Mapping[str, Any]] = None
    partition: Optional[Coalescing] = None


def claim_from_result(result: Any, k: int = 0) -> CoalescingClaim:
    """Build a claim from a :class:`~repro.coalescing.base.
    CoalescingResult` (duck-typed: any object with ``graph``,
    ``coalescing``, ``strategy`` and ``coalesced``).  The result's
    ``strategy`` label is the table name it runs under, so its contract
    is a lookup (:func:`is_greedy_contract`)."""
    return CoalescingClaim(
        graph=result.graph,
        coalescing=result.coalescing,
        k=k,
        conservative=is_greedy_contract(result.strategy),
        coalesced=list(getattr(result, "coalesced", ())),
    )


#: What :func:`_partition` reads of a claim: the partition, the
#: ``COAL002`` findings of a claimed cover that is not the vertex set
#: exactly once, and the number of class members (one budget step each
#: in the validity walks).
_Read = Tuple[Coalescing, List[Diagnostic], int]


def _read_classes(
    graph: InterferenceGraph, coalescing: Coalescing, obj: str
) -> _Read:
    """The partition ``coalescing`` claims for ``graph``, read from its
    :meth:`~repro.graphs.interference.Coalescing.classes` into a fresh
    :class:`~repro.graphs.interference.Coalescing` with no union check,
    so an interfering class stays for ``COAL001`` to find.  Members that
    are no vertex of ``graph``, vertices in two classes and vertices in
    none become ``COAL002`` findings; a class is represented by the slot
    of its ``find``."""
    partition = Coalescing(graph)
    twin = partition.twin
    index, adj = twin.index, twin.adj
    classes = coalescing.classes()
    problems: List[Diagnostic] = []
    seen: Set[Any] = set()
    for members in classes:
        for v in members:
            if v in seen:
                problems.append(Diagnostic(
                    "COAL002", "error",
                    f"{v} appears in more than one coalescing class",
                    where=str(v), obj=obj, detail={"vertex": str(v)},
                ))
            seen.add(v)
            if v not in index:
                problems.append(Diagnostic(
                    "COAL002", "error",
                    f"coalescing class contains {v}, not a graph vertex",
                    where=str(v), obj=obj, detail={"vertex": str(v)},
                ))
    for v in twin.names:
        if v not in seen:
            problems.append(Diagnostic(
                "COAL002", "error",
                f"graph vertex {v} is missing from the partition",
                where=str(v), obj=obj, detail={"vertex": str(v)},
            ))
    groups, rows, rep = partition.groups, partition.rows, partition.rep
    for members in classes:
        slots = [index[v] for v in members if v in index]
        if len(slots) < 2:
            continue
        r = index.get(coalescing.find(twin.names[slots[0]]), slots[0])
        mask = row = 0
        for i in slots:
            mask |= 1 << i
            row |= adj[i]
            rep[i] = r
        groups[r] = groups.get(r, 0) | mask
        rows[r] = rows.get(r, 0) | row
    return partition, problems, sum(map(len, classes))


def _partition(claim: CoalescingClaim, ctx: AnalysisContext) -> _Read:
    """The claim's partition on the twin's slots, read once per context."""
    if claim.partition is not None:
        return claim.partition, [], claim.partition.twin.n
    return ctx.fact(
        "partition", claim,
        lambda c: _read_classes(c.graph, c.coalescing, ctx.obj))


def _quotient(partition: Coalescing) -> DenseGraph:
    """The quotient :math:`G_f` on a copy of the graph's dense twin.

    One :meth:`~repro.graphs.dense.DenseGraph.merge_group` per
    multi-member class, representative first, so each class survives in
    its representative's slot under the name
    :meth:`~repro.graphs.interference.Coalescing.coalesced_graph` gives
    it.  Raises ``ValueError`` if a class holds two interfering vertices
    and ``KeyError`` if two classes share a vertex.  When no class
    merges, the quotient is the graph itself: the frozen twin is
    returned, with the peel it keeps per ``k``.
    """
    twin = partition.twin
    if not partition.groups:
        return twin
    quotient = twin.copy()
    for rep, mask in partition.groups.items():
        members = [rep]
        rest = mask & ~(1 << rep)
        while rest:
            low = rest & -rest
            rest ^= low
            members.append(low.bit_length() - 1)
        quotient.merge_group(members)
    return quotient


@analysis_pass(
    "coalescing-validity", "coalescing", codes=("COAL001", "COAL002")
)
def check_coalescing_validity(
    claim: CoalescingClaim, ctx: AnalysisContext
) -> Iterator[Diagnostic]:
    """The partition is a valid coalescing: disjoint cover, no class
    with two interfering vertices."""
    partition, problems, size = _partition(claim, ctx)
    # one step per class member in each walk, charged once per walk
    ctx.check_budget(size)
    yield from problems
    twin = partition.twin
    adj, names = twin.adj, twin.names
    ctx.check_budget(size)
    for mask in partition.groups.values():
        rest = mask
        while rest:
            low = rest & -rest
            rest ^= low
            i = low.bit_length() - 1
            # partners in higher slots only: each pair is reported once
            clash = adj[i] & mask & -(low << 1)
            while clash:
                bit = clash & -clash
                clash ^= bit
                j = bit.bit_length() - 1
                a, b = sorted((str(names[i]), str(names[j])))
                yield Diagnostic(
                    "COAL001", "error",
                    f"{a} and {b} interfere but share a coalescing "
                    "class",
                    where=f"{a}--{b}", obj=ctx.obj,
                    detail={"edge": [a, b]},
                )


@analysis_pass(
    "coalescing-ledger", "coalescing", codes=("COAL003", "COAL005")
)
def check_coalescing_ledger(
    claim: CoalescingClaim, ctx: AnalysisContext
) -> Iterator[Diagnostic]:
    """Bookkeeping matches the partition: coalesced list and aggregates."""
    partition = _partition(claim, ctx)[0]
    index, rep = partition.twin.index, partition.rep
    for u, v, w in claim.coalesced:
        ctx.check_budget()
        if u not in index or v not in index \
                or rep[index[u]] != rep[index[v]]:
            yield Diagnostic(
                "COAL003", "error",
                f"affinity ({u}, {v}) reported coalesced but the "
                "endpoints are in different classes",
                where=f"{u}--{v}", obj=ctx.obj,
                detail={"affinity": [str(u), str(v)], "weight": w},
            )
    if claim.expected:
        # one walk of the affinities, the aggregates derived as
        # CoalescingResult derives them
        graph = claim.graph
        residual = 0.0
        given_up = 0
        for ends, w in graph.affinity_items():
            u, v = ends
            if rep[index[u]] != rep[index[v]]:
                residual += w
                given_up += 1
        recomputed: Dict[str, float] = {
            "residual_weight": residual,
            "coalesced_weight": graph.total_affinity_weight() - residual,
            "coalesced": graph.num_affinities() - given_up,
        }
        for name, actual in recomputed.items():
            claimed = claim.expected.get(name)
            if claimed is None:
                continue
            if abs(float(claimed) - float(actual)) > 1e-9:
                yield Diagnostic(
                    "COAL005", "error",
                    f"claimed {name} = {claimed} but the partition "
                    f"yields {actual}",
                    obj=ctx.obj,
                    detail={"field": name, "claimed": claimed,
                            "recomputed": actual},
                )


@analysis_pass("coalescing-conservative", "coalescing", codes=("COAL004",))
def check_coalescing_conservative(
    claim: CoalescingClaim, ctx: AnalysisContext
) -> Iterator[Diagnostic]:
    """Conservative claims re-certified: G_f greedy-k-colorable, by
    a peel witness re-checked on the dense quotient's rows."""
    if not claim.conservative:
        return
    k = claim.k or ctx.k
    if k <= 0:
        return  # no register bound to certify against
    ctx.check_budget()
    # conservativeness is a *preservation* contract: it only promises a
    # greedy-k-colorable quotient when the input graph was one
    if greedy_core(claim.graph.dense(), k):
        yield Diagnostic(
            "COAL004", "info",
            f"input graph is not greedy-{k}-colorable, so the "
            "conservative contract is vacuous here",
            obj=ctx.obj, detail={"k": k},
        )
        return
    partition, problems, _ = _partition(claim, ctx)
    if problems:
        return  # not a partition; coalescing-validity reports it
    try:
        quotient = _quotient(partition)
    except (KeyError, ValueError):
        return  # invalid partition; coalescing-validity reports it
    ctx.check_budget()
    rounds, core = greedy_peel(quotient, k)
    if core:
        names = quotient.names
        leftover = sorted(
            str(v) for i, v in enumerate(names) if core >> i & 1)
        yield Diagnostic(
            "COAL004", "error",
            f"quotient graph is not greedy-{k}-colorable "
            f"({len(leftover)} vertices of degree >= {k} remain) — the "
            "conservative contract is broken",
            obj=ctx.obj,
            detail={"k": k, "remaining": leftover[:32]},
        )
        return
    # the peel claims success: re-check its rounds on the quotient's rows
    # instead of trusting the kernel
    for diag in verify_elimination_rounds(quotient, rounds, k, ctx):
        yield Diagnostic(
            "COAL004", "error",
            "elimination-order witness for the quotient failed "
            f"re-certification: {diag.message}",
            where=diag.where, obj=ctx.obj, detail=diag.detail,
        )


# ----------------------------------------------------------------------
# allocation results
# ----------------------------------------------------------------------
def _row_pairs(
    rows: Sequence[int],
    nonslot: int,
    offending: Callable[[int, int], int],
) -> Tuple[List[Tuple[int, int]], int]:
    """Walk the interference rows of the non-slot variables.

    Asks ``offending(i, row)`` for the bits of ``row`` (already
    restricted to ``nonslot``) that clash with variable ``i``.  Returns
    the clashing pairs as ``(lower, higher)`` interned indices, each
    once and in ascending order — the order
    :meth:`~repro.graphs.graph.Graph.edges` visits them in, since the
    rows of :func:`~repro.ir.interference.interference_rows` may hold an
    edge on one side or on both — and the number of row bits walked,
    one budget step each, for the caller to charge at once.
    """
    pairs = set()
    steps = 0
    rest = nonslot
    while rest:
        low = rest & -rest
        rest ^= low
        i = low.bit_length() - 1
        row = rows[i] & nonslot
        if not row:
            continue
        steps += row.bit_count()
        bad = offending(i, row)
        while bad:
            bit = bad & -bad
            bad ^= bit
            j = bit.bit_length() - 1
            pairs.add((i, j) if i < j else (j, i))
    return sorted(pairs), steps


def code_facts(
    func: Function, ctx: AnalysisContext, known: Optional[CodeFacts] = None
) -> CodeFacts:
    """The final code's :class:`~repro.intervals.linear_scan.CodeFacts`,
    one per context: the allocation passes share its liveness solve,
    interference rows and intervals.  ``known`` puts facts the caller
    already holds for ``func`` into the context before any pass runs."""
    return ctx.fact("code", func,
                    CodeFacts if known is None else lambda _: known)


@analysis_pass(
    "allocation-validity", "allocation",
    codes=("ALLOC001", "ALLOC002", "ALLOC003"),
)
def check_allocation_validity(
    result: Any, ctx: AnalysisContext
) -> Iterator[Diagnostic]:
    """The assignment is a valid coloring of the final code's graph.

    Walks the interference rows over the non-slot mask: a row's clashes
    are ``row & unassigned`` (ALLOC003) and ``row & same_register``
    (ALLOC001), whole-row masks, so only offending pairs cost Python
    work.
    """
    func = result.function
    assignment = result.assignment
    k = result.k
    facts = code_facts(func, ctx)
    variables, rows = facts.rows
    register = [assignment.get(v) for v in variables]
    unassigned = 0
    by_register: Dict[Any, int] = {}
    for i, c in enumerate(register):
        if c is None:
            unassigned |= 1 << i
        else:
            by_register[c] = by_register.get(c, 0) | 1 << i

    def offending(i: int, row: int) -> int:
        c = register[i]
        if c is None:
            return row
        return row & (unassigned | by_register[c])

    pairs, steps = _row_pairs(rows, facts.nonslot, offending)
    ctx.check_budget(steps)
    for lo, hi in pairs:
        u, v = variables[lo], variables[hi]
        cu = register[lo]
        if cu is None or register[hi] is None:
            missing = u if cu is None else v
            yield Diagnostic(
                "ALLOC003", "error",
                f"interfering variable {missing} has no register",
                where=str(missing), obj=func.name,
                detail={"vertex": str(missing)},
            )
        else:
            a, b = sorted((str(u), str(v)))
            yield Diagnostic(
                "ALLOC001", "error",
                f"{a} and {b} interfere but share register r{cu}",
                where=f"{a}--{b}", obj=func.name,
                detail={"edge": [a, b], "register": cu},
            )
    for v, c in assignment.items():
        if not isinstance(c, int) or not 0 <= c < k:
            yield Diagnostic(
                "ALLOC002", "error",
                f"{v} got out-of-range register r{c}",
                where=str(v), obj=func.name,
                detail={"vertex": str(v), "register": c, "k": k},
            )


@analysis_pass("allocation-spill", "allocation", codes=("ALLOC004",))
def check_allocation_spill(
    result: Any, ctx: AnalysisContext
) -> Iterator[Diagnostic]:
    """Spill bookkeeping: spilled variables rewritten away, memory
    slots never in registers."""
    func = result.function
    ctx.check_budget()
    final_vars = code_facts(func, ctx).variable_set
    for v in getattr(result, "spilled", ()):
        if v in final_vars:
            yield Diagnostic(
                "ALLOC004", "error",
                f"{v} is recorded as spilled but still appears in the "
                "final code",
                where=str(v), obj=func.name, detail={"vertex": str(v)},
            )
    for v in result.assignment:
        if is_memory_slot(v):
            yield Diagnostic(
                "ALLOC004", "error",
                f"memory slot {v} was assigned a register",
                where=str(v), obj=func.name, detail={"vertex": str(v)},
            )
