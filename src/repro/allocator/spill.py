"""Spilling support: cost model and spill-everywhere code rewriting.

The paper treats spilling as the *other* half of register allocation
(Section 1): Chaitin-style allocators spill inside the colouring loop,
SSA-based allocators spill in a first phase until Maxlive ≤ k.  Both
allocators here use the same primitive: spill a variable *everywhere*,
i.e. give every definition a store and every use its own freshly-named
load, so the variable's live range shatters into tiny intervals.

Memory slots are modelled as pseudo-variables named ``slot(...)``
defined by ``store`` and read by ``load``; they do not occupy registers
and must be filtered out of pressure/interference computations
(:func:`is_memory_slot`).
"""

from __future__ import annotations

from typing import Dict, List, Set

from ..ir.cfg import Function
from ..ir.dominance import loop_depths
from ..ir.instructions import Instr, Phi, Var
from ..ir.ssa import _copy_function
from ..obs import NULL_TRACER, Tracer

_TERMINATORS = frozenset({"br", "cbr", "jmp", "ret", "switch"})


def is_memory_slot(v: Var) -> bool:
    """True for the pseudo-variables standing for stack slots."""
    return isinstance(v, str) and v.startswith("slot(")


def spill_costs(func: Function) -> Dict[Var, float]:
    """Chaitin's static spill cost: (defs + uses) weighted by the block
    frequency (10^loop-depth when frequencies were not set)."""
    if not func.frequency:
        freq = {b: 10.0 ** d for b, d in loop_depths(func).items()}
    else:
        freq = {b: func.block_frequency(b) for b in func.blocks}
    costs: Dict[Var, float] = {}
    # insertion-order walk so float accumulation order is reproducible
    for name in func.reachable_order():
        block = func.blocks[name]
        f = freq.get(name, 1.0)
        for phi in block.phis:
            costs[phi.target] = costs.get(phi.target, 0.0) + f
            for pred, v in phi.args.items():
                costs[v] = costs.get(v, 0.0) + freq.get(pred, 1.0)
        for instr in block.instrs:
            for v in instr.defs:
                costs[v] = costs.get(v, 0.0) + f
            for v in instr.uses:
                costs[v] = costs.get(v, 0.0) + f
    return costs


def spill_everywhere(
    func: Function, variables: Set[Var], tracer: Tracer = NULL_TRACER
) -> Function:
    """Rewrite ``func`` with the given variables spilled everywhere.

    Every definition of a spilled variable stores to its slot; every use
    loads into a fresh name.  φ-functions are handled through memory:

    * a φ whose *target* is spilled disappears — its arguments are
      stored into the shared slot at the end of each predecessor (the
      classical memory-coalescing of a spilled φ-web);
    * a surviving φ with a spilled *argument* gets a load at the end of
      the predecessor.

    Critical edges are split first whenever φs are involved, so the
    edge code cannot leak onto unrelated paths (the footnote-1 subtlety
    of the paper).  Returns a new function; ``func`` is untouched.
    """
    out = _copy_function(func)
    if not variables:
        return out
    if any(b.phis for b in out.blocks.values()):
        out.split_critical_edges()
    # close downstream over φs: if an argument is spilled, spill the
    # target too.  Otherwise the target's φ would need a reload of the
    # argument at the end of the predecessor, re-creating exactly the
    # register pressure the spill was meant to remove (all φ-sources of
    # a join are simultaneously live at the predecessor's end).
    variables = set(variables)
    changed = True
    while changed:
        changed = False
        for block in out.blocks.values():
            for phi in block.phis:
                if phi.target not in variables and (
                    set(phi.args.values()) & variables
                ):
                    variables.add(phi.target)
                    changed = True
    tracer.count("spill.variables", len(variables))
    counter = [0]

    def fresh(v: Var) -> Var:
        counter[0] += 1
        return f"{v}.r{counter[0]}"

    slot: Dict[Var, Var] = {}

    def slot_of(v: Var) -> Var:
        return slot.setdefault(v, f"slot({v})")

    # unify slots across spilled φ-webs
    for block in out.blocks.values():
        for phi in block.phis:
            if phi.target in variables:
                shared = slot_of(phi.target)
                for v in set(phi.args.values()) & variables:
                    slot[v] = shared

    # φ fixes to apply at the ends of predecessor blocks
    edge_code: Dict[str, List[Instr]] = {b: [] for b in out.blocks}
    for name, block in out.blocks.items():
        surviving: List[Phi] = []
        for phi in block.phis:
            if phi.target in variables:
                for pred, arg in phi.args.items():
                    if arg not in variables:
                        edge_code[pred].append(
                            Instr("store", (slot_of(phi.target),), (arg,))
                        )
                        tracer.count("spill.stores")
                    # a spilled argument already stores to the shared
                    # slot at its definition
            else:
                for pred, arg in list(phi.args.items()):
                    if arg in variables:
                        tmp = fresh(arg)
                        edge_code[pred].append(
                            Instr("load", (tmp,), (slot_of(arg),))
                        )
                        tracer.count("spill.loads")
                        phi.args[pred] = tmp
                surviving.append(phi)
        block.phis = surviving

    for name, block in out.blocks.items():
        new_instrs: List[Instr] = []
        for instr in block.instrs:
            uses = list(instr.uses)
            for i, v in enumerate(uses):
                if v in variables:
                    tmp = fresh(v)
                    new_instrs.append(Instr("load", (tmp,), (slot_of(v),)))
                    tracer.count("spill.loads")
                    uses[i] = tmp
            defs = list(instr.defs)
            stores: List[Instr] = []
            for i, v in enumerate(defs):
                if v in variables:
                    tmp = fresh(v)
                    stores.append(Instr("store", (slot_of(v),), (tmp,)))
                    tracer.count("spill.stores")
                    defs[i] = tmp
            # a rewritten mov keeps its 1-def/1-use shape, so it stays a
            # coalescable copy between the fresh names
            new_instrs.append(Instr(instr.op, tuple(defs), tuple(uses)))
            new_instrs.extend(stores)
        cut = len(new_instrs)
        if new_instrs and new_instrs[-1].op in _TERMINATORS:
            cut -= 1
        new_instrs[cut:cut] = edge_code[name]
        block.instrs = new_instrs
    return out


def memory_slots(func: Function) -> Set[Var]:
    """The memory slot pseudo-variables present after spilling."""
    return {v for v in func.variables() if is_memory_slot(v)}


def strip_memory_slots(variables: Set[Var]) -> Set[Var]:
    """Filter out slot pseudo-variables from a variable set."""
    return {v for v in variables if not is_memory_slot(v)}


def is_spill_temp(v: Var) -> bool:
    """True for the fresh names introduced by :func:`spill_everywhere`."""
    tail = str(v).rsplit(".", 1)
    return len(tail) == 2 and tail[1].startswith("r") and tail[1][1:].isdigit()
