"""A generic monotone dataflow framework over dense bitsets.

One engine, many analyses: a :class:`DataflowProblem` packages the four
degrees of freedom of a classic bit-vector monotone framework —

* **direction** — ``"forward"`` (facts flow along CFG edges) or
  ``"backward"`` (against them);
* **confluence** — ``"may"`` (union at joins: a fact holds if it holds
  on *some* path) or ``"must"`` (intersection: on *all* paths);
* **domain** — the finite fact universe, interned to bit positions the
  same way :mod:`repro.graphs.dense` interns vertices, so every
  per-block set is one Python ``int`` and a transfer evaluation is a
  handful of word-wise OR/AND-NOT operations;
* **transfer** — per-block ``gen``/``kill`` masks, i.e. the standard
  ``f(x) = gen | (x & ~kill)`` shape every bit-vector analysis has.

:func:`solve` runs a deterministic worklist to the (unique — the
lattice is finite and the transfers monotone) fixpoint and returns a
:class:`DataflowResult` with the per-block in/out masks.  Work is
accounted to :data:`~repro.obs.names.WORDS_MERGED` under the
size-of-data-consumed convention of :mod:`repro.obs.names`: one
evaluation of a block with *m* meet inputs over a *w*-word domain
costs ``(m + 3) * w`` merged words (*m* meet operands plus the
gen/kill/extra applications), exactly the accounting the hand-rolled
liveness kernel used — so rewiring an analysis through the engine can
only be observed by the counters going *down* (the worklist skips the
full no-change verification sweep a round-robin loop pays for).

The classic instances live here too, and the rest of the repo consumes
them instead of hand-rolled fixpoints:

* :func:`liveness_problem` — backward/may liveness with the paper's
  φ-conventions (φ-uses live-out of the predecessor, φ-targets defined
  at the join's top); :func:`repro.ir.liveness.liveness_masks` is now a
  thin wrapper over it, proven bit-exact by the fuzz suite;
* :func:`definite_assignment_problem` — forward/must definitely-assigned
  variables, the strictness property of §2.1 consumed by
  :func:`repro.ir.liveness.check_strict`.

See ``docs/DATAFLOW.md`` for the lattice/transfer contract and how to
register a diagnostic pass on top of an analysis.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Mapping, Set, Tuple

from ..obs import NULL_TRACER, WORDS_MERGED, Tracer
from .cfg import Function

__all__ = [
    "WORD_BITS",
    "DataflowProblem",
    "DataflowResult",
    "solve",
    "liveness_problem",
    "definite_assignment_problem",
]

#: Word size used for the work accounting (matches the dense kernels).
WORD_BITS = 64

_DIRECTIONS = ("forward", "backward")
_CONFLUENCES = ("may", "must")


@dataclass(frozen=True)
class DataflowProblem:
    """One bit-vector dataflow analysis instance over a CFG.

    ``domain`` is the ordered fact universe (order defines the bit
    positions; keep it deterministic).  ``gen``/``kill`` map block
    names to transfer masks (missing blocks default to 0); ``extra``
    is a per-block mask merged into the confluence *result* before the
    transfer — liveness uses it for the φ-uses that happen on the edge
    rather than in either block.  ``boundary`` is the meet value at
    the CFG boundary: the entry's in-value (forward) or the in-value
    of blocks without successors (backward).
    """

    name: str
    direction: str
    confluence: str
    domain: Tuple[str, ...]
    gen: Mapping[str, int] = field(default_factory=dict)
    kill: Mapping[str, int] = field(default_factory=dict)
    extra: Mapping[str, int] = field(default_factory=dict)
    boundary: int = 0

    def __post_init__(self) -> None:
        if self.direction not in _DIRECTIONS:
            raise ValueError(
                f"direction must be one of {_DIRECTIONS}, "
                f"got {self.direction!r}"
            )
        if self.confluence not in _CONFLUENCES:
            raise ValueError(
                f"confluence must be one of {_CONFLUENCES}, "
                f"got {self.confluence!r}"
            )

    @property
    def universe(self) -> int:
        """The all-ones mask over the domain (the lattice top/bottom)."""
        return (1 << len(self.domain)) - 1

    @property
    def words(self) -> int:
        """Bitset words per set, for the work accounting (min 1)."""
        return max(1, (len(self.domain) + WORD_BITS - 1) // WORD_BITS)

    def index(self) -> Dict[str, int]:
        """The fact → bit-position interning map."""
        return {v: i for i, v in enumerate(self.domain)}


@dataclass
class DataflowResult:
    """The fixpoint of one :func:`solve` run.

    ``in_masks``/``out_masks`` map every reachable block to its in/out
    bitmask over ``problem.domain``; ``evaluations`` counts transfer
    applications (worklist pops), a machine-independent convergence
    metric.
    """

    problem: DataflowProblem
    in_masks: Dict[str, int]
    out_masks: Dict[str, int]
    evaluations: int = 0

    def members(self, mask: int) -> List[str]:
        """Materialize a bitmask back to domain members, in bit order."""
        out: List[str] = []
        domain = self.problem.domain
        while mask:
            low = mask & -mask
            out.append(domain[low.bit_length() - 1])
            mask ^= low
        return out

    def in_set(self, block: str) -> Set[str]:
        """The in-facts of ``block`` as a set of domain members."""
        return set(self.members(self.in_masks[block]))

    def out_set(self, block: str) -> Set[str]:
        """The out-facts of ``block`` as a set of domain members."""
        return set(self.members(self.out_masks[block]))


def solve(
    func: Function,
    problem: DataflowProblem,
    tracer: Tracer = NULL_TRACER,
) -> DataflowResult:
    """Run ``problem`` to its fixpoint over ``func``'s reachable CFG.

    Deterministic worklist: blocks are visited in postorder for a
    backward problem and reverse postorder for a forward one (the
    orders that converge in one sweep on reducible acyclic regions),
    and a block re-enters the worklist only when one of its meet
    inputs changed.  Unreachable blocks take no part — their facts are
    whatever the boundary of the analysis says about dead code, which
    no caller should consult.
    """
    counting = tracer.enabled
    reachable = func.reachable()
    order = (
        func.postorder() if problem.direction == "backward"
        else func.reverse_postorder()
    )
    words = problem.words
    universe = problem.universe
    may = problem.confluence == "may"
    backward = problem.direction == "backward"
    gen = problem.gen
    kill = problem.kill
    extra = problem.extra

    # meet inputs / dependents per block, restricted to reachable code
    if backward:
        inputs = {
            b: [s for s in func.successors(b) if s in reachable]
            for b in order
        }
        dependents = {
            b: [p for p in func.predecessors(b) if p in reachable]
            for b in order
        }
    else:
        inputs = {
            b: [p for p in func.predecessors(b) if p in reachable]
            for b in order
        }
        dependents = {
            b: [s for s in func.successors(b) if s in reachable]
            for b in order
        }

    # optimistic initialization: bottom (∅) for may, top (universe) for
    # must — a backedge input read before its first evaluation must not
    # poison the meet
    init = universe if not may else 0
    in_masks: Dict[str, int] = {b: init for b in order}
    out_masks: Dict[str, int] = {b: init for b in order}
    evaluations = 0
    pending: Set[str] = set(order)
    while pending:
        # one deterministic sweep over the priority order, visiting
        # only the blocks whose inputs changed since their last visit
        for b in order:
            if b not in pending:
                continue
            pending.discard(b)
            evaluations += 1
            sources = inputs[b]
            if not backward and b == func.entry:
                # the entry meets only the boundary, preds (backedges
                # into the entry) notwithstanding — dominators and
                # definite assignment both require this
                met = problem.boundary
                nin = 0
            elif not sources:
                met = problem.boundary
                nin = 0
            elif may:
                met = 0
                for s in sources:
                    met |= out_masks[s] if not backward else in_masks[s]
                nin = len(sources)
            else:
                met = universe
                for s in sources:
                    met &= out_masks[s] if not backward else in_masks[s]
                nin = len(sources)
            met |= extra.get(b, 0)
            derived = gen.get(b, 0) | (met & ~kill.get(b, 0))
            if counting:
                tracer.count(WORDS_MERGED, (nin + 3) * words)
            if backward:
                out_masks[b] = met
                # only the in-facts feed the predecessors' meets
                notify = derived != in_masks[b]
                in_masks[b] = derived
            else:
                in_masks[b] = met
                notify = derived != out_masks[b]
                out_masks[b] = derived
            if notify:
                for d in dependents[b]:
                    pending.add(d)
    return DataflowResult(
        problem=problem,
        in_masks={b: in_masks[b] for b in order},
        out_masks={b: out_masks[b] for b in order},
        evaluations=evaluations,
    )


# ---------------------------------------------------------------------------
# instances
# ---------------------------------------------------------------------------
def liveness_problem(func: Function) -> DataflowProblem:
    """Backward/may liveness with the SSA φ-conventions of §2.1.

    The domain is the function's variables in sorted order (the same
    interning :func:`repro.ir.liveness.liveness_masks` always used).
    φ-targets are defined at the top of the join block (they are killed
    from the live-in) and φ-arguments are used at the end of the
    matching predecessor (they enter through the predecessor's
    ``extra`` mask, since the use happens on the edge, not inside
    either block's instruction list).
    """
    reachable = func.reachable()
    domain = tuple(sorted(func.variables()))
    index = {v: i for i, v in enumerate(domain)}

    gen: Dict[str, int] = {}
    kill: Dict[str, int] = {}
    extra: Dict[str, int] = {b: 0 for b in reachable}
    phi_defs: Dict[str, int] = {b: 0 for b in reachable}
    for name in sorted(reachable):
        block = func.blocks[name]
        upward = 0
        defined = 0
        for instr in block.instrs:
            for v in instr.uses:
                bv = 1 << index[v]
                if not defined & bv:
                    upward |= bv
            for v in instr.defs:
                defined |= 1 << index[v]
        gen[name] = upward
        kill[name] = defined
        for phi in block.phis:
            phi_defs[name] |= 1 << index[phi.target]
            for pred, v in phi.args.items():
                if pred in reachable:
                    extra[pred] |= 1 << index[v]
    # φ-targets are defined at the block top: killed from the live-in
    # even when the block's own instructions use them
    for name in gen:
        gen[name] &= ~phi_defs[name]
        kill[name] |= phi_defs[name]
    return DataflowProblem(
        name="liveness", direction="backward", confluence="may",
        domain=domain, gen=gen, kill=kill, extra=extra,
    )


def definite_assignment_problem(func: Function) -> DataflowProblem:
    """Forward/must definitely-assigned variables (strictness, §2.1).

    A variable is in ``out(b)`` iff every entry→``b`` path assigns it
    by the end of ``b``; φ-targets count as assignments of the join
    block.  A strict program is exactly one whose every use reads a
    definitely-assigned variable — :func:`repro.ir.liveness.
    check_strict` consumes this instance.
    """
    reachable = func.reachable()
    domain = tuple(sorted(func.variables()))
    index = {v: i for i, v in enumerate(domain)}
    gen: Dict[str, int] = {}
    for name in sorted(reachable):
        block = func.blocks[name]
        mask = 0
        for v in block.defs():
            mask |= 1 << index[v]
        gen[name] = mask
    return DataflowProblem(
        name="definite-assignment", direction="forward",
        confluence="must", domain=domain, gen=gen, boundary=0,
    )
