"""SSA construction (Cytron et al.).

φ-placement uses the iterated dominance frontier, pruned with liveness
(a φ for ``v`` is placed at a join only if ``v`` is live-in there), so
the resulting program is *strict*: every use is dominated by its unique
definition.  Renaming walks the dominator tree.

The strict-SSA invariants the paper relies on (Section 2, Theorem 1)
are checked by the ``ssa-invariants`` pass of
:mod:`repro.analysis.ssa_check`.
"""

from __future__ import annotations

from typing import Dict, List, Set

from .cfg import Function
from .dominance import DominatorTree, dominance_frontiers
from .instructions import Instr, Phi, Var
from .liveness import compute_liveness


def construct_ssa(func: Function) -> Function:
    """Return a new function in pruned strict SSA form.

    The input must be strict (uses definitely assigned); variables are
    renamed to ``name.N``.  The input function is not modified.
    """
    src = _copy_function(func)
    tree = DominatorTree(src)
    frontiers = dominance_frontiers(src, tree)
    liveness = compute_liveness(src)
    reachable = src.reachable()

    # blocks defining each variable (visit order is deterministic so
    # def_sites / phi_blocks dict order — and hence per-block φ append
    # order — does not leak PYTHONHASHSEED into the output)
    def_sites: Dict[Var, Set[str]] = {}
    for name in src.reachable_order():
        for instr in src.blocks[name].instrs:
            for v in instr.defs:
                def_sites.setdefault(v, set()).add(name)

    # φ placement via iterated dominance frontier, pruned by liveness
    phi_blocks: Dict[Var, Set[str]] = {v: set() for v in def_sites}
    for v, sites in def_sites.items():
        worklist = sorted(sites)
        while worklist:
            b = worklist.pop()
            for d in frontiers.get(b, ()):
                if d in phi_blocks[v]:
                    continue
                if v not in liveness.live_in[d]:
                    continue  # pruned: dead at the join
                phi_blocks[v].add(d)
                if d not in sites:
                    worklist.append(d)
    for v, blocks in phi_blocks.items():
        for b in sorted(blocks):
            src.blocks[b].phis.append(
                Phi(v, {p: v for p in src.predecessors(b) if p in reachable})
            )

    # renaming
    counter: Dict[Var, int] = {}
    stacks: Dict[Var, List[Var]] = {v: [] for v in src.variables()}

    def fresh(v: Var) -> Var:
        n = counter.get(v, 0)
        counter[v] = n + 1
        new = f"{v}.{n}"
        stacks[v].append(new)
        return new

    def top(v: Var) -> Var:
        if not stacks[v]:
            raise ValueError(f"use of {v} before any definition (non-strict)")
        return stacks[v][-1]

    def rename(b: str) -> None:
        block = src.blocks[b]
        pushed: List[Var] = []
        for phi in block.phis:
            old = phi.target
            phi.target = fresh(old)
            pushed.append(old)
        for i, instr in enumerate(block.instrs):
            new_uses = tuple(top(v) for v in instr.uses)
            new_defs = []
            for v in instr.defs:
                new_defs.append(fresh(v))
                pushed.append(v)
            block.instrs[i] = Instr(instr.op, tuple(new_defs), new_uses)
        for s in src.successors(b):
            for phi in src.blocks[s].phis:
                if b in phi.args:
                    v = phi.args[b]
                    if stacks[v]:
                        phi.args[b] = top(v)
                    # else: the path never defines v; strictness of the
                    # pruned-φ construction guarantees this arg is dead
        for c in tree.children.get(b, ()):
            rename(c)
        for v in pushed:
            stacks[v].pop()

    import sys

    old_limit = sys.getrecursionlimit()
    sys.setrecursionlimit(max(old_limit, 4 * len(src.blocks) + 100))
    try:
        rename(src.entry)
    finally:
        sys.setrecursionlimit(old_limit)
    return src


def _copy_function(func: Function) -> Function:
    """Deep-ish copy of a function (blocks, instrs, φs, edges, freqs)."""
    out = Function(func.name, func.entry)
    for name in func.block_names():
        block = out.add_block(name)
        srcb = func.blocks[name]
        block.phis = [Phi(p.target, dict(p.args)) for p in srcb.phis]
        block.instrs = [Instr(i.op, i.defs, i.uses) for i in srcb.instrs]
    for name in func.block_names():
        for s in func.successors(name):
            out.add_edge(name, s)
    out.frequency = dict(func.frequency)
    return out
