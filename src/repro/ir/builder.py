"""A small fluent API for constructing IR functions.

Tests, examples, and the reduction code-constructions (Figure 1) all
need to write programs by hand; this builder keeps that terse without
hiding the IR::

    fb = FunctionBuilder("f")
    b0 = fb.block("entry")
    b0.const("x").const("y").op("add", "z", "x", "y")
    b1 = fb.block("left");  b2 = fb.block("right")
    fb.edge("entry", "left"); fb.edge("entry", "right")
    ...
    func = fb.finish()
"""

from __future__ import annotations

from typing import Optional, Sequence

from .cfg import Function
from .instructions import Instr, Phi, Var


class BlockBuilder:
    """Appends instructions to one basic block."""

    def __init__(self, func: Function, name: str) -> None:
        self._func = func
        self._name = name

    @property
    def name(self) -> str:
        """The label of the block under construction."""
        return self._name

    def _append(self, instr: Instr) -> "BlockBuilder":
        self._func.blocks[self._name].instrs.append(instr)
        return self

    def const(self, dst: Var) -> "BlockBuilder":
        """``dst = const``"""
        return self._append(Instr("const", (dst,), ()))

    def mov(self, dst: Var, src: Var) -> "BlockBuilder":
        """``dst = mov src`` — a coalescable copy."""
        return self._append(Instr("mov", (dst,), (src,)))

    def op(self, opcode: str, dst: Optional[Var], *uses: Var) -> "BlockBuilder":
        """``dst = opcode uses...`` (dst may be None for effects)."""
        defs = (dst,) if dst is not None else ()
        return self._append(Instr(opcode, defs, tuple(uses)))

    def use(self, *uses: Var) -> "BlockBuilder":
        """A pure use (e.g. a store or a return value)."""
        return self._append(Instr("use", (), tuple(uses)))

    def ret(self, *uses: Var) -> "BlockBuilder":
        """Terminator returning the given values."""
        return self._append(Instr("ret", (), tuple(uses)))

    def branch(self, cond: Optional[Var] = None) -> "BlockBuilder":
        """A (conditional) branch terminator using ``cond`` if given."""
        uses = (cond,) if cond is not None else ()
        return self._append(Instr("br", (), uses))

    def phi(self, target: Var, **incoming: Var) -> "BlockBuilder":
        """Add ``target = φ(pred=value, ...)`` to the block."""
        self._func.blocks[self._name].phis.append(Phi(target, dict(incoming)))
        return self


class FunctionBuilder:
    """Builds a :class:`Function` block by block."""

    def __init__(self, name: str = "f", entry: str = "entry") -> None:
        self.func = Function(name, entry)

    def block(self, name: str) -> BlockBuilder:
        """Create (or reopen) a block and return its builder."""
        self.func.add_block(name)
        return BlockBuilder(self.func, name)

    def edge(self, src: str, dst: str) -> "FunctionBuilder":
        """Add a CFG edge."""
        self.func.add_edge(src, dst)
        return self

    def edges(self, *pairs: Sequence[str]) -> "FunctionBuilder":
        """Add several edges at once: ``edges(("a","b"), ("a","c"))``."""
        for src, dst in pairs:
            self.func.add_edge(src, dst)
        return self

    def frequency(self, block: str, value: float) -> "FunctionBuilder":
        """Set a block's static execution frequency."""
        self.func.frequency[block] = value
        return self

    def finish(self, validate: bool = True) -> Function:
        """Return the function (validated structurally by default)."""
        if validate:
            self.func.validate()
        return self.func
