"""A deterministic IR interpreter for transformation verification.

The allocator pipeline rewrites programs aggressively — SSA renaming,
φ elimination, spill-everywhere, register substitution — and each
rewrite claims to preserve semantics.  This interpreter makes that
claim testable: run the original and the transformed function on the
same deterministic input stream and compare the observable *traces*.

Semantics (chosen so traces are invariant under the library's
transformations):

* ``const`` definitions consume successive values from a shared input
  stream — transformations never add, drop, or reorder consts along an
  execution path, so the k-th const sees the same value in both
  programs;
* arithmetic ops (``add``/``sub``/``mul``) compute modulo a small
  prime; any other value-producing op computes a deterministic mix of
  its operand values and the op name;
* a block's φs evaluate in parallel from the predecessor environment;
* a terminating instruction with successors picks the successor slot
  ``(value + k(k+1)/2) % n_succ`` where ``k`` counts decisions so far
  (value 0 when the branch has no operand).  The triangular term walks
  through every residue class, so loops terminate even when the
  condition value alternates in lockstep with the counter — while
  staying identical across transformed programs (they execute the same
  decision sequence);
* ``store``/``load`` move values through slot pseudo-variables (the
  spiller's memory);
* ``use``/``ret`` append their operand values to the observable trace;
  ``ret`` stops execution.

``run`` returns a :class:`Trace`; ``equivalent`` compares two functions
on a batch of input streams.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

from .cfg import Function
from .instructions import Var

MODULUS = 9973  # a small prime keeps values bounded and mixes well

_ARITH = {
    "add": lambda vals: sum(vals) % MODULUS,
    "sub": lambda vals: (vals[0] - sum(vals[1:])) % MODULUS if vals else 0,
    "mul": lambda vals: _product(vals),
}


def _product(vals: Sequence[int]) -> int:
    out = 1
    for v in vals:
        out = (out * v) % MODULUS
    return out


def _mix(op: str, vals: Sequence[int]) -> int:
    out = sum(ord(c) for c in op) % MODULUS
    for v in vals:
        out = (out * 31 + v + 7) % MODULUS
    return out


class Stuck(RuntimeError):
    """Raised when execution cannot continue (interpreter-level error,
    e.g. an undefined variable — a transformation bug)."""


@dataclass
class Trace:
    """Observable behaviour of one bounded execution."""

    observed: List[int] = field(default_factory=list)  # use/ret operands
    decisions: List[int] = field(default_factory=list)  # branch picks
    returned: bool = False
    fuel_exhausted: bool = False

    def key(self) -> Tuple:
        """The semantic fingerprint equivalence checks compare."""
        return (tuple(self.observed), self.returned, self.fuel_exhausted)


def input_stream(seed: int, length: int = 4096) -> List[int]:
    """A reproducible stream of const values."""
    rng = random.Random(seed)
    return [rng.randrange(1, MODULUS) for _ in range(length)]


def run(
    func: Function,
    stream: Sequence[int],
    fuel: int = 2000,
) -> Trace:
    """Execute ``func`` with the given const stream.

    ``fuel`` bounds the number of *branch decisions* (not instructions),
    so two transformed variants of the same program exhaust it at the
    same logical point.
    """
    env: Dict[Var, int] = {}
    trace = Trace()
    consts = iter(stream)
    block = func.entry
    prev: Optional[str] = None
    steps = 0

    while True:
        steps += 1
        if steps > 20 * fuel + 100:
            # a branch-free cycle would never consume decision fuel;
            # treat it like exhaustion (identical in both programs)
            trace.fuel_exhausted = True
            return trace
        b = func.blocks[block]
        if b.phis:
            if prev is None:
                raise Stuck(f"φ in entry block {block}")
            incoming = {}
            for phi in b.phis:
                arg = phi.args.get(prev)
                if arg is None:
                    raise Stuck(f"φ {phi} has no arg for pred {prev}")
                if arg not in env:
                    raise Stuck(f"φ argument {arg} undefined")
                incoming[phi.target] = env[arg]
            env.update(incoming)

        jumped = False
        for instr in b.instrs:
            vals = []
            for v in instr.uses:
                if v not in env:
                    raise Stuck(f"use of undefined {v} in {block}")
                vals.append(env[v])
            if instr.op == "const":
                for d in instr.defs:
                    try:
                        env[d] = next(consts)
                    except StopIteration:
                        raise Stuck("input stream exhausted")
            elif instr.op in ("mov", "load", "store", "copy"):
                for d in instr.defs:
                    env[d] = vals[0] if vals else 0
            elif instr.op == "ret":
                trace.observed.extend(vals)
                trace.returned = True
                return trace
            elif instr.op == "use":
                trace.observed.extend(vals)
            elif instr.op in _ARITH and instr.defs:
                result = _ARITH[instr.op](vals)
                for d in instr.defs:
                    env[d] = result
            else:
                for d in instr.defs:
                    env[d] = _mix(instr.op, vals)
            # a terminator-ish op with successors triggers the jump
            # decision immediately (moves inserted after it by edge
            # code never exist: insertion is always before terminators)
            if instr.op in ("br", "cbr", "jmp", "switch"):
                succs = func.successors(block)
                if succs:
                    if len(trace.decisions) >= fuel:
                        trace.fuel_exhausted = True
                        return trace
                    value = vals[0] if vals else 0
                    k = len(trace.decisions)
                    # triangular mixing: (k²+k)/2 cycles through every
                    # residue class, so even a loop whose condition
                    # value alternates in lockstep with the counter
                    # exits within a few iterations
                    pick = (value + k * (k + 1) // 2) % len(succs)
                    trace.decisions.append(pick)
                    prev, block = block, succs[pick]
                    jumped = True
                    break
        if jumped:
            continue
        # fall-through: implicit jump
        succs = func.successors(block)
        if not succs:
            return trace
        if len(succs) == 1:
            prev, block = block, succs[0]
            continue
        # multi-way fall-through (no explicit branch op): decide from
        # the decision counter alone
        if len(trace.decisions) >= fuel:
            trace.fuel_exhausted = True
            return trace
        k = len(trace.decisions)
        pick = (k * (k + 1) // 2) % len(succs)
        trace.decisions.append(pick)
        prev, block = block, succs[pick]


def equivalent(
    a: Function,
    b: Function,
    seeds: Sequence[int] = (0, 1, 2, 3, 4),
    fuel: int = 2000,
) -> bool:
    """Do the two functions produce identical traces on a batch of
    deterministic inputs?"""
    for seed in seeds:
        stream = input_stream(seed)
        ta = run(a, stream, fuel=fuel)
        tb = run(b, stream, fuel=fuel)
        if ta.key() != tb.key():
            return False
    return True


def apply_assignment(func: Function, assignment: Dict[Var, int]) -> Function:
    """Rewrite a function onto physical registers.

    Every variable with an assignment becomes ``R<n>``; slot
    pseudo-variables keep their names (they live in memory).  Identity
    moves that result are kept (they are harmless no-ops for the
    interpreter) so the rewrite stays purely a renaming.  Running the
    result against the original under :func:`equivalent` is an
    end-to-end semantic check of the register allocation.
    """
    from .ssa import _copy_function

    renaming = {v: f"R{r}" for v, r in assignment.items()}
    out = _copy_function(func)
    for block in out.blocks.values():
        if block.phis:
            raise ValueError("apply_assignment expects φ-free code")
        block.instrs = [i.renamed(renaming) for i in block.instrs]
    return out
