"""Function-structure, strictness, and strict-SSA validation passes.

These passes re-check, diagnostically, the invariants the paper's
Section 2 leans on:

* ``cfg-structure`` — the CFG is well formed: the entry block exists,
  every edge is mirrored in the predecessor lists, and each φ has
  exactly one argument per predecessor (codes ``CFG001``–``CFG003``);
* ``strictness`` — every use is definitely assigned on all paths from
  the entry (codes ``STRICT001``/``STRICT002``), the property that
  makes Chaitin and intersection interference coincide (§2.1);
* ``ssa-invariants`` — single textual definition per variable, every
  ordinary use dominated by its definition, every φ-use dominated at
  the end of the matching predecessor, and no use of a never-defined
  value (codes ``SSA001``–``SSA004``) — the strict-SSA invariants
  behind Theorem 1's chordality result.

Each invariant has exactly this one checker; the tests pin its codes
on seeded violations.
"""

from __future__ import annotations

from typing import Dict, Iterator, Tuple

from ..ir.cfg import Function
from ..ir.dominance import DominatorTree
from ..ir.instructions import Var
from ..ir.liveness import describe_violation, strictness_violations
from .diagnostics import Diagnostic
from .registry import AnalysisContext, analysis_pass

__all__ = ["looks_like_ssa"]


@analysis_pass(
    "cfg-structure", "function", codes=("CFG001", "CFG002", "CFG003")
)
def check_cfg_structure(
    func: Function, ctx: AnalysisContext
) -> Iterator[Diagnostic]:
    """CFG well-formedness: entry, edge mirroring, φ/predecessor arity."""
    if func.entry not in func.blocks:
        yield Diagnostic(
            "CFG002", "error",
            f"entry block {func.entry!r} does not exist",
            obj=func.name,
        )
        return
    for name in func.blocks:
        ctx.check_budget()
        for s in func.successors(name):
            if name not in func.predecessors(s):
                yield Diagnostic(
                    "CFG001", "error",
                    f"edge {name}->{s} missing from predecessor list of {s}",
                    where=name, obj=func.name,
                    detail={"src": name, "dst": s},
                )
        for p in func.predecessors(name):
            if name not in func.successors(p):
                yield Diagnostic(
                    "CFG001", "error",
                    f"edge {p}->{name} missing from successor list of {p}",
                    where=name, obj=func.name,
                    detail={"src": p, "dst": name},
                )
    for name, block in func.blocks.items():
        preds = set(func.predecessors(name))
        for phi in block.phis:
            if set(phi.args) != preds:
                yield Diagnostic(
                    "CFG003", "error",
                    f"phi for {phi.target} has args from "
                    f"{sorted(phi.args)} but predecessors are {sorted(preds)}",
                    where=name, obj=func.name,
                    detail={
                        "target": str(phi.target),
                        "args": sorted(map(str, phi.args)),
                        "predecessors": sorted(map(str, preds)),
                    },
                )


@analysis_pass("strictness", "function", codes=("STRICT001", "STRICT002"))
def check_strictness(
    func: Function, ctx: AnalysisContext
) -> Iterator[Diagnostic]:
    """Strictness: every use definitely assigned on all entry paths."""
    ctx.check_budget()
    if func.entry not in func.blocks:
        return  # cfg-structure reports CFG002; dataflow needs an entry
    for var, block, pred in strictness_violations(func):
        yield Diagnostic(
            "STRICT001" if pred is None else "STRICT002", "error",
            describe_violation(var, block, pred), where=block, obj=func.name,
        )


def looks_like_ssa(func: Function) -> bool:
    """Heuristic used by the runner's ``expect_ssa="auto"`` mode.

    True when the function either contains φ-functions or has a single
    textual definition for every variable — i.e. when SSA invariants
    are plausibly *intended* and worth checking.
    """
    seen: set = set()
    for name in func.reachable():
        block = func.blocks[name]
        if block.phis:
            return True
        for instr in block.instrs:
            for v in instr.defs:
                if v in seen:
                    return False
                seen.add(v)
    return True


@analysis_pass(
    "ssa-invariants", "ssa",
    codes=("SSA001", "SSA002", "SSA003", "SSA004"),
)
def check_ssa_invariants(
    func: Function, ctx: AnalysisContext
) -> Iterator[Diagnostic]:
    """Strict SSA: single defs, dominance of uses, defined φ-args."""
    dominates = DominatorTree(func).dominates
    reachable = func.reachable()

    def_site: Dict[Var, Tuple[str, int]] = {}
    for name in reachable:
        ctx.check_budget()
        block = func.blocks[name]
        for phi in block.phis:
            if phi.target in def_site:
                yield Diagnostic(
                    "SSA001", "error",
                    f"{phi.target} has more than one definition",
                    where=name, obj=func.name,
                    detail={"var": str(phi.target),
                            "first_def": def_site[phi.target][0]},
                )
            else:
                def_site[phi.target] = (name, -1)
        for i, instr in enumerate(block.instrs):
            for v in instr.defs:
                if v in def_site:
                    yield Diagnostic(
                        "SSA001", "error",
                        f"{v} has more than one definition",
                        where=f"{name}:{i}", obj=func.name,
                        detail={"var": str(v),
                                "first_def": def_site[v][0]},
                    )
                else:
                    def_site[v] = (name, i)

    def dominates_point(v: Var, use_block: str, use_index: int) -> bool:
        db, di = def_site[v]
        if db != use_block:
            return dominates(db, use_block)
        return di < use_index

    for name in reachable:
        ctx.check_budget()
        block = func.blocks[name]
        for phi in block.phis:
            for pred, v in phi.args.items():
                if pred not in reachable:
                    continue
                if v not in def_site:
                    yield Diagnostic(
                        "SSA004", "error",
                        f"phi arg {v} (from {pred}) is never defined",
                        where=name, obj=func.name,
                        detail={"var": str(v), "pred": pred},
                    )
                elif not dominates_point(
                    v, pred, len(func.blocks[pred].instrs)
                ):
                    yield Diagnostic(
                        "SSA003", "error",
                        f"phi arg {v} (from {pred}) is not dominated by "
                        "its definition at the end of the predecessor",
                        where=name, obj=func.name,
                        detail={"var": str(v), "pred": pred,
                                "def_block": def_site[v][0]},
                    )
        for i, instr in enumerate(block.instrs):
            for v in instr.uses:
                if v not in def_site:
                    yield Diagnostic(
                        "SSA004", "error",
                        f"use of {v} but it is never defined",
                        where=f"{name}:{i}", obj=func.name,
                        detail={"var": str(v)},
                    )
                elif not dominates_point(v, name, i):
                    yield Diagnostic(
                        "SSA002", "error",
                        f"use of {v} is not dominated by its definition",
                        where=f"{name}:{i}", obj=func.name,
                        detail={"var": str(v),
                                "def_block": def_site[v][0]},
                    )
