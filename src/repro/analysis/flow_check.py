"""Program diagnostics built on the generic dataflow framework.

Four registered passes of the ``dataflow`` kind, all running on a
structurally-valid :class:`repro.ir.cfg.Function` and all consuming
the :mod:`repro.ir.dataflow` engine (directly or through the
liveness instance it powers):

* ``unreachable-code`` — ``FLOW001`` (warning): a block no entry path
  reaches.  Dead blocks are invisible to liveness and dominance (both
  restrict to reachable code), so everything the checker certifies
  silently ignores them — worth telling the user about;
* ``dead-defs`` — ``FLOW002`` (warning): a definition whose value is
  not live immediately after it — never read on any path.  Under
  strict SSA this coincides with "never used anywhere"; on non-SSA
  programs it additionally catches overwritten stores;
* ``redundant-copies`` — ``FLOW003`` (info): the affinity lint.  A
  ``mov`` whose endpoints do not interfere is exactly a copy every
  conservative coalescing strategy is *allowed* to merge (Briggs/
  George aside, merging non-interfering endpoints is always sound);
  reporting them makes the coalescable mass of a program visible;
* ``pressure-hotspots`` — ``FLOW004``: the per-block Maxlive profile
  of the spill-everywhere companion paper.  Always emits one info
  diagnostic locating the block (and program point) where the
  function's Maxlive is reached; with ``ctx.k > 0`` it additionally
  warns for every block whose peak pressure exceeds ``k`` — the
  blocks that force spills for that register budget.

Locations use the ``block`` / ``block:index`` convention of the other
passes, so :mod:`repro.analysis.provenance` maps them to ``file:line``
for frontend-lowered input.
"""

from __future__ import annotations

from typing import Dict, Iterator, Set, Tuple

from ..ir.cfg import Function
from ..ir.instructions import Var
from ..ir.liveness import compute_liveness
from .diagnostics import Diagnostic
from .registry import AnalysisContext, analysis_pass

__all__ = ["block_pressure"]


@analysis_pass("unreachable-code", "dataflow", codes=("FLOW001",))
def check_unreachable(
    func: Function, ctx: AnalysisContext
) -> Iterator[Diagnostic]:
    """Blocks unreachable from the entry (FLOW001)."""
    reachable = func.reachable()
    for name in func.blocks:
        ctx.check_budget()
        if name not in reachable:
            yield Diagnostic(
                "FLOW001", "warning",
                f"block {name} is unreachable from the entry "
                f"{func.entry}; liveness and SSA checks ignore it",
                where=name, obj=func.name,
                detail={"block": name, "entry": func.entry},
            )


@analysis_pass("dead-defs", "dataflow", codes=("FLOW002",))
def check_dead_defs(
    func: Function, ctx: AnalysisContext
) -> Iterator[Diagnostic]:
    """Definitions that are dead at their own program point (FLOW002)."""
    info = compute_liveness(func)
    reachable = func.reachable()
    for name in func.blocks:
        if name not in reachable:
            continue
        ctx.check_budget()
        block = func.blocks[name]
        live: Set[Var] = set(info.live_out[name])
        dead: list = []
        for i in range(len(block.instrs) - 1, -1, -1):
            instr = block.instrs[i]
            for v in instr.defs:
                if v not in live:
                    dead.append((i, instr, v))
            live -= set(instr.defs)
            live |= set(instr.uses)
        for i, instr, v in reversed(dead):
            yield Diagnostic(
                "FLOW002", "warning",
                f"definition of {v} (op {instr.op}) is dead: the value "
                "is never used on any path",
                where=f"{name}:{i}", obj=func.name,
                detail={"var": str(v), "op": instr.op, "block": name},
            )
        # φ-targets are defined at the block top, in parallel
        for phi in block.phis:
            if phi.target not in live:
                yield Diagnostic(
                    "FLOW002", "warning",
                    f"φ-definition of {phi.target} is dead: the value "
                    "is never used on any path",
                    where=name, obj=func.name,
                    detail={"var": str(phi.target), "op": "phi",
                            "block": name},
                )


@analysis_pass("redundant-copies", "dataflow", codes=("FLOW003",))
def check_redundant_copies(
    func: Function, ctx: AnalysisContext
) -> Iterator[Diagnostic]:
    """The affinity lint: trivially coalescable copies (FLOW003)."""
    from ..ir.interference import chaitin_interference

    graph = chaitin_interference(func, weighted=False, tracer=ctx.tracer)
    reachable = func.reachable()
    for name, i, instr in func.moves():
        if name not in reachable:
            continue
        ctx.check_budget()
        dst, src = instr.defs[0], instr.uses[0]
        if dst == src:
            yield Diagnostic(
                "FLOW003", "info",
                f"copy {dst} = mov {src} is a self-copy: it can be "
                "deleted outright",
                where=f"{name}:{i}", obj=func.name,
                detail={"dst": str(dst), "src": str(src), "self": True},
            )
        elif not graph.has_edge(dst, src):
            yield Diagnostic(
                "FLOW003", "info",
                f"copy {dst} = mov {src} is coalescable: the endpoints "
                "do not interfere, so merging them is always safe",
                where=f"{name}:{i}", obj=func.name,
                detail={"dst": str(dst), "src": str(src), "self": False},
            )


def block_pressure(func: Function) -> Dict[str, Tuple[int, int]]:
    """Per-block peak register pressure: ``{block: (pressure, point)}``.

    Pressure follows the Maxlive convention of
    :func:`repro.ir.liveness.maxlive`: a variable is live *at* its
    definition point, and all φ-targets of a block count at its top
    (point 0), where they are defined in parallel.  ``point`` is the
    earliest instruction index achieving the block's peak
    (``len(instrs)`` = the block-end boundary point).  The maximum
    over blocks is exactly ``maxlive(func)``.
    """
    info = compute_liveness(func)
    out: Dict[str, Tuple[int, int]] = {}
    for name in func.blocks:
        if name not in info.live_out:
            continue
        block = func.blocks[name]
        live: Set[Var] = set(info.live_out[name])
        best, point = len(live), len(block.instrs)
        for i in range(len(block.instrs) - 1, -1, -1):
            instr = block.instrs[i]
            here = len(live | set(instr.defs))
            if here >= best:
                best, point = here, i
            live -= set(instr.defs)
            live |= set(instr.uses)
        top = len(live | {phi.target for phi in block.phis})
        if top >= best:
            best, point = top, 0
        out[name] = (best, point)
    return out


@analysis_pass("pressure-hotspots", "dataflow", codes=("FLOW004",))
def check_pressure_hotspots(
    func: Function, ctx: AnalysisContext
) -> Iterator[Diagnostic]:
    """The Maxlive profile: hotspot evidence + spill-forcing blocks."""
    ctx.check_budget()
    profile = block_pressure(func)
    if not profile:
        return
    peak = max(p for p, _ in profile.values())
    if ctx.k > 0:
        for name, (p, point) in profile.items():
            if p > ctx.k:
                yield Diagnostic(
                    "FLOW004", "warning",
                    f"register pressure {p} in block {name} exceeds "
                    f"k={ctx.k}: this block forces spills",
                    where=f"{name}:{point}", obj=func.name,
                    detail={"block": name, "pressure": p, "k": ctx.k,
                            "point": point},
                )
    hot = next(n for n, (p, _) in profile.items() if p == peak)
    point = profile[hot][1]
    yield Diagnostic(
        "FLOW004", "info",
        f"pressure hotspot: Maxlive {peak} is reached in block {hot} "
        f"(point {point})",
        where=f"{hot}:{point}", obj=func.name,
        detail={
            "maxlive": peak, "block": hot, "point": point,
            "profile": {n: p for n, (p, _) in profile.items()},
        },
    )
