"""Lowering: LLVM-subset AST → :class:`repro.ir.Function`.

The lowering keeps exactly what the register-allocation stack consumes
and nothing else:

* every SSA register (``%x``) becomes a :data:`repro.ir.Var` named
  ``x``; constants and ``@globals`` in operand position are dropped
  (they never occupy a register in this model);
* function parameters become ``param`` pseudo-definitions at the top
  of the entry block, so every use is dominated by a textual def and
  strictness/SSA checks hold;
* terminators become CFG edges in branch order (``br`` true/false,
  ``switch`` default-then-cases with duplicates collapsed); a
  conditional ``br``/``switch`` additionally keeps a use-only
  instruction so the condition's live range is observed;
* φ-nodes become :class:`repro.ir.Phi` records keyed by predecessor
  block.  A *constant* incoming value is materialized as a fresh
  ``const``-defined register at the end of the corresponding
  predecessor (before its terminator) — the same shape
  :func:`repro.ir.ssa.construct_ssa` produces — so φ arguments are
  always registers;
* value-preserving conversions (``bitcast``, ``freeze``) of a register
  lower to ``mov`` — real, coalescable copies; width-changing casts
  keep their opcode and are *not* copies;
* ``call`` lowers to one def-with-uses instruction (clobber modelling
  is out of scope); ``alloca``/``load``/``store``/``getelementptr``
  are opaque defs/uses of their register operands.

Structural problems that survive parsing — branches to undefined
labels, φ predecessor sets that disagree with the CFG, uses of
never-defined registers — raise :class:`LoweringError` with the source
line.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence, Set, Tuple

from ..ir.cfg import Function
from ..ir.instructions import Instr, Phi
from .parser import LLFunction, LLInstruction, LLModule, Operand

__all__ = ["LoweringError", "lower_function", "lower_module"]

#: Conversions that copy their operand's value bit-for-bit: these lower
#: to ``mov`` and are therefore visible to every coalescing strategy.
COPY_OPS = frozenset({"bitcast", "freeze"})

#: Lowered ops that end a block; const materialization inserts above
#: these so the defining instruction stays inside the block body.
_TERMINATOR_OPS = frozenset({"br", "switch", "ret", "unreachable"})


class LoweringError(ValueError):
    """A structurally invalid function discovered during lowering.

    Mirrors :class:`~repro.frontend.tokens.FrontendSyntaxError`:
    ``lineno``/``message`` attributes, ``str`` reads ``line N: message``.
    """

    def __init__(self, lineno: int, message: str) -> None:
        super().__init__(f"line {lineno}: {message}")
        self.lineno = lineno
        self.message = message


def _local_uses(operands: Sequence[Operand]) -> Tuple[str, ...]:
    return tuple(op.text for op in operands if op.is_local)


def _lower_instruction(instr: LLInstruction) -> Optional[Instr]:
    """One AST instruction → one IR instruction (or none)."""
    uses = _local_uses(instr.operands)
    line = instr.line
    if instr.opcode in COPY_OPS and instr.dest is not None and len(uses) == 1:
        return Instr("mov", (instr.dest,), uses, line=line)
    if instr.opcode == "br":
        return Instr("br", (), uses, line=line) if uses else None
    if instr.opcode == "switch":
        return Instr("switch", (), uses, line=line) if uses else None
    if instr.opcode == "ret":
        return Instr("ret", (), uses, line=line)
    if instr.opcode == "unreachable":
        return Instr("unreachable", line=line)
    defs = (instr.dest,) if instr.dest is not None else ()
    return Instr(instr.opcode, defs, uses, line=line)


class _FunctionLowering:
    """State for lowering one function (fresh-name allocation, checks)."""

    def __init__(self, source: LLFunction) -> None:
        self.source = source
        self.labels = set(source.block_labels())
        self.defined: Set[str] = set(source.params)
        for block in source.blocks:
            self.defined.update(phi.dest for phi in block.phis)
            self.defined.update(
                i.dest for i in block.instrs if i.dest is not None
            )
        self._fresh = 0

    def fresh_const(self) -> str:
        """A register name free in this function, for φ constants."""
        while True:
            name = f"phic.{self._fresh}"
            self._fresh += 1
            if name not in self.defined:
                self.defined.add(name)
                return name

    def check_target(self, label: str, instr: LLInstruction) -> None:
        """Fail with a located error on a branch to an unknown label."""
        if label not in self.labels:
            raise LoweringError(
                instr.line,
                f"branch to undefined label %{label}",
            )

    def check_uses(self, uses: Sequence[str], line: int) -> None:
        """Fail with a located error on a use of an undefined value."""
        for use in uses:
            if use not in self.defined:
                raise LoweringError(
                    line, f"use of undefined value %{use}"
                )


def lower_function(source: LLFunction) -> Function:
    """Lower one parsed function onto the :mod:`repro.ir` substrate.

    The result validates (:meth:`repro.ir.Function.validate`) and — for
    well-formed SSA input — passes the strictness and SSA analysis
    passes unchanged, so interference graphs, coalescing, allocation,
    and translation validation run on it like on any generated program.
    """
    state = _FunctionLowering(source)
    entry = source.blocks[0].label
    func = Function(source.name, entry)
    func.source_line = source.line
    for block in source.blocks:
        func.add_block(block.label).line = block.line

    # parameters define their registers at the top of the entry block;
    # their provenance is the define line itself
    func.blocks[entry].instrs = [
        Instr("param", (p,), (), line=source.line) for p in source.params
    ]

    # instructions and edges (edge insertion order = branch order)
    for block in source.blocks:
        target = func.blocks[block.label]
        for instr in block.instrs:
            state.check_uses(_local_uses(instr.operands), instr.line)
            lowered = _lower_instruction(instr)
            if lowered is not None:
                target.instrs.append(lowered)
            for label in instr.targets:
                state.check_target(label, instr)
                func.add_edge(block.label, label)

    # φ-nodes: constants materialize in the predecessor, preds must
    # agree with the CFG
    for block in source.blocks:
        preds = set(func.predecessors(block.label))
        for phi in block.phis:
            args: Dict[str, str] = {}
            for value, pred in phi.incomings:
                if pred not in state.labels:
                    raise LoweringError(
                        phi.line,
                        f"phi %{phi.dest} names undefined predecessor "
                        f"%{pred}",
                    )
                if value.is_local:
                    state.check_uses((value.text,), phi.line)
                    incoming = value.text
                else:
                    incoming = _materialize_const(
                        func, state, pred, line=phi.line
                    )
                if pred in args and args[pred] != incoming:
                    raise LoweringError(
                        phi.line,
                        f"phi %{phi.dest} has conflicting values for "
                        f"predecessor %{pred}",
                    )
                args[pred] = incoming
            if set(args) != preds:
                raise LoweringError(
                    phi.line,
                    f"phi %{phi.dest} covers predecessors "
                    f"{sorted(args)} but block %{block.label} has "
                    f"predecessors {sorted(preds)}",
                )
            func.blocks[block.label].phis.append(
                Phi(phi.dest, args, line=phi.line)
            )

    func.validate()
    return func


def _materialize_const(
    func: Function, state: _FunctionLowering, pred: str, line: int = 0
) -> str:
    """Define a fresh ``const`` register at the end of ``pred``.

    ``line`` anchors the synthetic instruction to the φ that demanded
    the constant — the closest thing it has to a source location.
    """
    name = state.fresh_const()
    instrs = func.blocks[pred].instrs
    at = len(instrs)
    if instrs and instrs[-1].op in _TERMINATOR_OPS:
        at -= 1
    instrs.insert(at, Instr("const", (name,), (), line=line))
    return name


def lower_module(module: LLModule) -> List[Function]:
    """Lower every function of a module, rejecting duplicate names.

    Each lowered function inherits the module's ``source`` path as its
    diagnostic provenance (``Function.source_file``).
    """
    seen: Set[str] = set()
    out: List[Function] = []
    for source in module.functions:
        if source.name in seen:
            raise LoweringError(
                source.line, f"duplicate function @{source.name}"
            )
        seen.add(source.name)
        func = lower_function(source)
        func.source_file = module.source
        out.append(func)
    return out
