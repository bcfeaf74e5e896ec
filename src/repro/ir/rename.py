"""Applying a coalescing to the program text.

A coalescing decides that a set of non-interfering variables share a
register; *applying* it renames each class to a single representative,
after which the coalesced copies become self-moves (droppable).  This
is how an out-of-SSA pass commits the result of aggressive coalescing
— and also how the paper's warning is made testable: committing an
aggressive coalescing *before* register allocation fuses live ranges
and can force spills the uncoalesced program never needed (Section 1:
"a too aggressive coalescing can increase the number of spills in the
subsequent register allocation phase").
"""

from __future__ import annotations

from typing import Dict, Mapping

from .cfg import Function
from .instructions import Var
from .ssa import _copy_function


def rename_by_classes(
    func: Function,
    mapping: Mapping[Var, Var],
    drop_self_moves: bool = True,
) -> Function:
    """Rename variables through ``mapping`` (e.g. a coalescing's
    ``as_mapping()``), optionally dropping the moves that become
    ``x = mov x``.

    Renaming non-interfering classes is semantics-preserving: within a
    class at most one member is live at any point, so a definition of
    one member can never clobber a live value of another.  Verified
    end-to-end by the interpreter tests.
    """
    out = _copy_function(func)
    table: Dict[Var, Var] = dict(mapping)
    for block in out.blocks.values():
        block.phis = [phi.renamed(table) for phi in block.phis]
        new_instrs = []
        for instr in block.instrs:
            renamed = instr.renamed(table)
            if (
                drop_self_moves
                and renamed.is_move
                and renamed.defs[0] == renamed.uses[0]
            ):
                continue
            new_instrs.append(renamed)
        block.instrs = new_instrs
    return out
