"""Linear-scan register allocation over live intervals.

Two variants of the interval-substrate allocator family, both driven
by :mod:`repro.intervals.model` and both verified (not trusted) by the
``allocation-intervals`` analysis pass:

* ``"classic"`` — Poletto–Sarkar linear scan.  Intervals are treated
  as their envelopes ``[start, end]``; the scan keeps the active
  intervals in a heap by end, expires those whose envelope ended, and
  on register exhaustion spills the interval with the *furthest end*
  (the classic heuristic).
* ``"second-chance"`` — hole-aware binpacking in the spirit of
  Traub's second-chance allocation: each register holds a set of
  intervals whose *ranges* do not pairwise intersect, so lifetime
  holes are reusable; on conflict the cheaper side — measured by
  :func:`repro.allocator.spill.spill_costs`, the same loop-frequency
  cost model ``spill_everywhere`` restarts use — is evicted.

Spilling reuses :func:`repro.allocator.spill.spill_everywhere`: each
round scans, collects victims, rewrites the code (fresh ``.rN`` reload
temporaries, ``slot(...)`` pseudo-variables), and rebuilds intervals
until a scan completes with no victim.  A caller that keeps the
input's :class:`CodeFacts` (the engine's build memo) hands them over;
every round then reads its intervals and costs, and every rewrite,
from the chain of :meth:`CodeFacts.spilled`, so a warm allocation
derives nothing.  Reload temporaries are never
victims — their single-segment ranges are what spilling produces, so
re-spilling them cannot reduce pressure.

Soundness does not depend on heuristics: by the occupancy convention
of :mod:`repro.intervals.model`, Chaitin interference implies interval
intersection, and both variants never let two range-intersecting
intervals share a register (the classic variant is coarser — it
separates envelope-overlapping intervals, a superset).  Every result
passes :meth:`AllocationResult.verify` and ``repro check`` translation
validation; the test suite asserts this across the fuzz seeds and the
whole LLVM corpus.
"""

from __future__ import annotations

import heapq
import threading
from dataclasses import dataclass, field, replace
from operator import itemgetter
from types import MappingProxyType
from typing import (
    Any, Callable, Dict, FrozenSet, Iterable, List, Mapping, Optional,
    Sequence, Tuple,
)

from ..allocator.chaitin import AllocationResult
from ..allocator.spill import (
    is_memory_slot,
    is_spill_temp,
    spill_costs,
    spill_everywhere,
)
from ..ir.cfg import Function
from ..ir.instructions import Var
from ..ir.interference import interference_rows, set_frequencies_from_loops
from ..ir.liveness import LivenessMasks, liveness_masks, maxlive
from ..obs import NULL_TRACER
from ..obs.tracer import Tracer
from . import model
from .model import IntervalSet, LiveInterval

__all__ = [
    "VARIANTS",
    "SPILLED_MEMO_SIZE",
    "CodeFacts",
    "LinearScanResult",
    "linear_scan_allocate",
]

#: The allocator variants ``linear_scan_allocate`` accepts.
VARIANTS = ("classic", "second-chance")

#: How many spill rewrites (:meth:`CodeFacts.spilled`, at any depth of
#: the chain) one input's facts keep, least recently used first.
SPILLED_MEMO_SIZE = 8

#: ``path -> (facts, fingerprint)`` of the spill rewrites one input
#: keeps; a path is the victim set of each round, in order.
_Links = Dict[Tuple[FrozenSet[Var], ...], Tuple["CodeFacts", Any]]
_links_lock = threading.Lock()


class CodeFacts:
    """The read-only facts derived from one function's code.

    ``liveness`` is the :func:`~repro.ir.liveness.liveness_masks` solve;
    ``intervals`` (:func:`~repro.intervals.model.build_intervals`),
    ``rows`` (:func:`~repro.ir.interference.interference_rows`) and
    ``maxlive`` are derived from it, ``costs`` is
    :func:`~repro.allocator.spill.spill_costs`, and ``nonslot`` and
    ``variable_set`` are what the allocation verifier reads of the code
    whatever the assignment.  Each is computed on first read, untraced,
    and then frozen as tuples, frozensets and
    :class:`~types.MappingProxyType` views, so a write raises
    ``TypeError`` and no reader can change what the next one reads.
    :meth:`derived` keeps a reader's own facts of the code beside them
    (the verifier's INTV001 walk).

    The facts describe ``function`` as it was when each was first read.
    Whoever keeps a ``CodeFacts`` beside a function drops it when the
    function changes: the engine's build memo keeps one per memoised
    input function and rebuilds both when its fingerprint check fails.
    The spill rewrites of the input (:meth:`spilled`) live on its facts,
    so they go with them.
    """

    __slots__ = ("function", "_memo", "_links", "_path")

    def __init__(self, function: Function) -> None:
        self.function = function
        self._memo: Dict[Any, Any] = {}
        self._links: _Links = {}
        self._path: Tuple[FrozenSet[Var], ...] = ()

    def _fact(self, name: Any, build: Callable[[], Any]) -> Any:
        memo = self._memo
        if name not in memo:
            memo.setdefault(name, build())
        return memo[name]

    @property
    def liveness(self) -> LivenessMasks:
        """``(variables, live_in, live_out)``, frozen."""
        def build() -> Any:
            variables, live_in, live_out = liveness_masks(self.function)
            return (tuple(variables), MappingProxyType(live_in),
                    MappingProxyType(live_out))
        return self._fact("liveness", build)

    @property
    def intervals(self) -> IntervalSet:
        """The live intervals over :attr:`liveness`, frozen."""
        def build() -> IntervalSet:
            iset = model.build_intervals(self.function,
                                         liveness=self.liveness)
            points = replace(iset.points,
                             entry=MappingProxyType(iset.points.entry),
                             sizes=MappingProxyType(iset.points.sizes))
            return IntervalSet(points=points,
                               intervals=MappingProxyType(iset.intervals))
        return self._fact("intervals", build)

    @property
    def rows(self) -> Tuple[Tuple[Var, ...], Tuple[int, ...]]:
        """The interference rows over :attr:`liveness`, frozen."""
        def build() -> Any:
            variables, rows = interference_rows(self.function,
                                                liveness=self.liveness)
            return variables, tuple(rows)
        return self._fact("rows", build)

    @property
    def costs(self) -> Mapping[Var, float]:
        """The static spill cost of every variable, read-only."""
        return self._fact(
            "costs", lambda: MappingProxyType(spill_costs(self.function)))

    @property
    def maxlive(self) -> int:
        """Maxlive, walked over :attr:`liveness`."""
        return self._fact(
            "maxlive", lambda: maxlive(self.function, liveness=self.liveness))

    @property
    def nonslot(self) -> int:
        """Bitmask, over the interning of :attr:`rows`, of the variables
        that are not memory slots."""
        def build() -> int:
            variables = self.rows[0]
            return sum(1 << i for i, v in enumerate(variables)
                       if not is_memory_slot(v))
        return self._fact("nonslot", build)

    @property
    def variable_set(self) -> FrozenSet[Var]:
        """Every variable the code names (``function.variables()``),
        frozen."""
        return self._fact(
            "variable_set", lambda: frozenset(self.function.variables()))

    def derived(self, build: Callable[["CodeFacts"], Any]) -> Any:
        """``build(self)``, computed once per facts object and kept
        beside the facts it reads: a reader's own fact of the code,
        such as a verifier's walk over :attr:`rows`, shares their
        lifetime.  Keyed by ``build`` itself, so pass a module-level
        function; the result must be read-only."""
        return self._fact(build, lambda: build(self))

    def spilled(self, victims: Iterable[Var]) -> "CodeFacts":
        """The facts of ``spill_everywhere(self.function, victims)``.

        The rewrite is built untraced and kept with the input's facts,
        keyed by the victims of every round from the input on, so a
        chain of calls (one per spill round) is rewritten once per
        process.  Each hit checks the stored function against the
        fingerprint taken when it was built and rebuilds it on a
        mismatch, as the engine's build memo does; at most
        :data:`SPILLED_MEMO_SIZE` rewrites are kept per input.
        """
        path = self._path + (frozenset(victims),)
        links = self._links
        with _links_lock:
            entry = links.pop(path, None)
            if entry is not None:
                links[path] = entry
        if entry is not None and entry[0].function.fingerprint() == entry[1]:
            return entry[0]
        link = CodeFacts(spill_everywhere(self.function, set(path[-1])))
        link._links, link._path = links, path
        entry = (link, link.function.fingerprint())
        with _links_lock:
            links.pop(path, None)
            links[path] = entry
            while len(links) > SPILLED_MEMO_SIZE:
                del links[next(iter(links))]
        return link


@dataclass
class LinearScanResult(AllocationResult):
    """An :class:`AllocationResult` produced by linear scan.

    Carries the interval-side evidence next to the assignment: the
    variant that ran, the number of scan rounds (1 + spill restarts),
    the final interval count and their maximum overlap (== Maxlive of
    the final, possibly spill-rewritten code).  The non-empty
    ``interval_variant`` marker is what routes the result through the
    ``allocation-intervals`` analysis pass.

    ``spill_rounds`` holds the victims of each restart, in order: the
    final code is ``spill_everywhere`` applied to the input once per
    entry, which is how a verifier rebuilds it from these decisions
    (:func:`repro.analysis.engine_check.certify_allocation`).
    """

    interval_variant: str = ""
    rounds: int = 1
    num_intervals: int = 0
    max_overlap: int = 0
    spill_rounds: List[List[Var]] = field(default_factory=list)


def _scan_order(iset: IntervalSet) -> Tuple[LiveInterval, ...]:
    """The non-slot intervals of ``iset`` in ``(start, end, name)``
    order, the order both scans visit them in."""
    return tuple(sorted(
        (interval for var, interval in iset.intervals.items()
         if not is_memory_slot(var)),
        key=lambda iv: (iv.start, iv.end, str(iv.var)),
    ))


def _facts_scan_order(facts: CodeFacts) -> Tuple[LiveInterval, ...]:
    """:func:`_scan_order` of the facts' intervals, kept on the facts
    (:meth:`CodeFacts.derived`)."""
    return _scan_order(facts.intervals)


#: The eviction key of an active classic-scan entry: ``(end, var)``.
_furthest = itemgetter(0, 3)


def _scan_classic(
    order: Sequence[LiveInterval],
    k: int,
    costs: Mapping[Var, float],
    tracer: Tracer,
) -> Tuple[Dict[Var, int], List[Var]]:
    """One Poletto scan: envelope-active intervals, furthest-end spill.

    The active intervals sit in a heap ordered by envelope end and the
    free registers in a min-heap, so expiring and handing out ``r0``
    first cost a pop each.  ``holder[r]`` is the active entry holding
    register ``r``: an evicted interval's entry stays in the heap and
    is skipped when it expires, since its register has another holder.
    At a pressure event every register is held, so the holders are the
    whole active set the furthest end is chosen from.
    """
    assignment: Dict[Var, int] = {}
    victims: List[Var] = []
    free = list(range(k))
    # (end, position, register, var); positions are distinct, so
    # entries never compare further
    active: List[Tuple[int, int, int, Var]] = []
    holder: List[Any] = [None] * k
    for position, interval in enumerate(order):
        start = interval.start
        while active and active[0][0] < start:
            entry = heapq.heappop(active)
            if holder[entry[2]] is entry:
                holder[entry[2]] = None
                heapq.heappush(free, entry[2])
        var, end = interval.var, interval.end
        if free:
            register = heapq.heappop(free)
        else:
            tracer.count("linscan.pressure_events")
            spillable = [e for e in holder if not is_spill_temp(e[3])]
            furthest = max(spillable, key=_furthest) if spillable else None
            if furthest is not None and (
                furthest[0] > end or is_spill_temp(var)
            ):
                # evict the active interval, hand its register to this one
                register = assignment.pop(furthest[3])
                victims.append(furthest[3])
            elif is_spill_temp(var):
                raise RuntimeError(
                    "register pressure cannot be reduced below "
                    f"k={k}: more than k reload temporaries are "
                    "simultaneously live"
                )
            else:
                victims.append(var)
                continue
        entry = (end, position, register, var)
        heapq.heappush(active, entry)
        holder[register] = entry
        assignment[var] = register
    return assignment, victims


def _scan_second_chance(
    order: Sequence[LiveInterval],
    k: int,
    costs: Mapping[Var, float],
    tracer: Tracer,
) -> Tuple[Dict[Var, int], List[Var]]:
    """One hole-aware scan: range conflicts, cost-based eviction.

    Each register keeps the OR of its residents' point masks; residents
    never intersect, so placing is one AND against it and evicting one
    XOR out of it.
    """
    assignment: Dict[Var, int] = {}
    victims: List[Var] = []
    residents: List[List[LiveInterval]] = [[] for _ in range(k)]
    occupied: List[int] = [0] * k
    for interval in order:
        mask = interval.mask
        register = next(
            (r for r, occ in enumerate(occupied) if not occ & mask), -1
        )
        if register >= 0:
            residents[register].append(interval)
            occupied[register] |= mask
            assignment[interval.var] = register
            continue
        tracer.count("linscan.pressure_events")
        # cheapest eviction set among the registers, if any is legal
        best: Optional[Tuple[float, int, List[LiveInterval]]] = None
        for register in range(k):
            conflicts = [res for res in residents[register] if res.mask & mask]
            if any(is_spill_temp(res.var) for res in conflicts):
                continue
            cost = sum(costs.get(res.var, 1.0) for res in conflicts)
            if best is None or cost < best[0]:
                best = (cost, register, conflicts)
        own_cost = (
            float("inf")
            if is_spill_temp(interval.var)
            else costs.get(interval.var, 1.0)
        )
        if best is not None and best[0] < own_cost:
            cost, register, conflicts = best
            for res in conflicts:
                residents[register].remove(res)
                occupied[register] ^= res.mask
                del assignment[res.var]
                victims.append(res.var)
            residents[register].append(interval)
            occupied[register] |= mask
            assignment[interval.var] = register
        elif own_cost < float("inf"):
            victims.append(interval.var)
        else:
            raise RuntimeError(
                "register pressure cannot be reduced below "
                f"k={k}: reload temporaries conflict in every register"
            )
    return assignment, victims


def linear_scan_allocate(
    func: Function,
    k: int,
    variant: str = "classic",
    max_rounds: int = 64,
    tracer: Tracer = NULL_TRACER,
    facts: Optional[CodeFacts] = None,
) -> LinearScanResult:
    """Allocate ``k`` registers for ``func`` by linear scan.

    Builds live intervals, scans them in deterministic ``(start, end,
    name)`` order, and on victims rewrites the code with
    :func:`repro.allocator.spill.spill_everywhere` and rescans, up to
    ``max_rounds`` times.  Returns a :class:`LinearScanResult` whose
    final function is the rewritten code; ``coalesced_moves`` counts
    copies whose operands ended up sharing a register.  Raises
    ``ValueError`` on a bad ``variant``/``k`` and ``RuntimeError`` if
    spilling cannot converge.

    ``facts`` is ``func``'s :class:`CodeFacts`, if the caller keeps
    them: each round reads its intervals, their scan order and spill
    costs, and each spill rewrite, from ``facts`` and its
    :meth:`CodeFacts.spilled` chain instead of deriving (and counting)
    them again.
    """
    if k <= 0:
        raise ValueError(f"need at least one register, got k={k}")
    if variant not in VARIANTS:
        raise ValueError(f"unknown variant {variant!r}; expected {VARIANTS}")
    scan = _scan_classic if variant == "classic" else _scan_second_chance
    if not func.frequency:
        set_frequencies_from_loops(func)
    work = func
    link = facts
    spill_rounds: List[List[Var]] = []
    rounds = 0
    while True:
        rounds += 1
        if rounds > max_rounds:
            raise RuntimeError(
                f"linear scan did not converge after {max_rounds} "
                "spill rounds"
            )
        with tracer.span("linscan/build"):
            if link is not None:
                iset: IntervalSet = link.intervals
                costs = link.costs
                order = link.derived(_facts_scan_order)
            else:
                iset = model.build_intervals(work, tracer=tracer)
                costs = spill_costs(work)
                order = _scan_order(iset)
        with tracer.span("linscan/scan"):
            assignment, victims = scan(order, k, costs, tracer)
        if not victims:
            break
        spill_rounds.append(victims)
        tracer.count("linscan.spill_rounds")
        tracer.count("linscan.spilled_intervals", len(victims))
        with tracer.span("linscan/spill-rewrite"):
            if link is not None:
                link = link.spilled(victims)
                work = link.function
            else:
                work = spill_everywhere(work, set(victims), tracer=tracer)
    coalesced = 0
    for _, _, instr in work.moves():
        dst, src = instr.defs[0], instr.uses[0]
        if (
            dst in assignment
            and src in assignment
            and assignment[dst] == assignment[src]
        ):
            coalesced += 1
    return LinearScanResult(
        function=work,
        assignment=assignment,
        k=k,
        spilled=[v for victims in spill_rounds for v in victims],
        coalesced_moves=coalesced,
        iterations=rounds,
        interval_variant=variant,
        rounds=rounds,
        num_intervals=len(iset),
        max_overlap=iset.max_overlap(),
        spill_rounds=spill_rounds,
    )
