"""Instructions of the mini-IR.

The IR is a conventional three-address code over named virtual
registers.  Only the aspects that matter for register allocation are
modelled: which variables an instruction *defines*, which it *uses*,
whether it is a register-to-register *move* (the coalescing targets),
and φ-functions for SSA form.

φ-functions are first-class: a :class:`Phi` carries one incoming
variable per predecessor block.  As in the paper (Theorem 1), φs are
*not* ordinary instructions — all φs of a block execute in parallel at
the block entry, and their uses happen at the end of the corresponding
predecessor.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Tuple

Var = str


@dataclass
class Instr:
    """A non-φ instruction: ``defs = op(uses)``.

    ``op`` is free-form ("const", "add", "mov", "cmp", "br", "ret",
    "call", ...).  The only op with special meaning to the allocator is
    ``"mov"`` with exactly one def and one use: a coalescable copy.
    """

    op: str
    defs: Tuple[Var, ...] = ()
    uses: Tuple[Var, ...] = ()
    #: 1-based source line (``.ll``/``.ir`` provenance); 0 = unknown.
    #: Not part of equality — two instructions are the same operation
    #: wherever they were written.
    line: int = field(default=0, compare=False)

    def __post_init__(self) -> None:
        self.defs = tuple(self.defs)
        self.uses = tuple(self.uses)
        if self.op == "mov" and (len(self.defs) != 1 or len(self.uses) != 1):
            raise ValueError("mov must have exactly one def and one use")

    @property
    def is_move(self) -> bool:
        """True for a coalescable register-to-register copy."""
        return self.op == "mov"

    def renamed(self, mapping: Dict[Var, Var]) -> "Instr":
        """A copy with variables substituted through ``mapping``."""
        return Instr(
            self.op,
            tuple(mapping.get(v, v) for v in self.defs),
            tuple(mapping.get(v, v) for v in self.uses),
            line=self.line,
        )

    def __str__(self) -> str:
        lhs = ", ".join(self.defs)
        rhs = ", ".join(self.uses)
        if self.defs and self.uses:
            return f"{lhs} = {self.op} {rhs}"
        if self.defs:
            return f"{lhs} = {self.op}"
        if self.uses:
            return f"{self.op} {rhs}"
        return self.op


def move(dst: Var, src: Var) -> Instr:
    """Convenience constructor for a copy instruction."""
    return Instr("mov", (dst,), (src,))


@dataclass
class Phi:
    """A φ-function ``target = φ(block₁: v₁, ..., blockₙ: vₙ)``.

    ``args`` maps each predecessor block name to the incoming variable.
    """

    target: Var
    args: Dict[str, Var] = field(default_factory=dict)
    #: 1-based source line (``.ll``/``.ir`` provenance); 0 = unknown.
    line: int = field(default=0, compare=False)

    def incoming(self, pred: str) -> Var:
        """The variable flowing in from predecessor ``pred``."""
        return self.args[pred]

    def renamed(self, mapping: Dict[Var, Var]) -> "Phi":
        """A copy with target and arguments substituted."""
        return Phi(
            mapping.get(self.target, self.target),
            {b: mapping.get(v, v) for b, v in self.args.items()},
            line=self.line,
        )

    def __str__(self) -> str:
        inner = ", ".join(f"{b}: {v}" for b, v in sorted(self.args.items()))
        return f"{self.target} = phi({inner})"
