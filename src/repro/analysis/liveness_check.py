"""Liveness/interference consistency passes (kind ``graph``).

The subject of a ``graph`` pass is a ``(function, graph)`` pair: the
IR function and an interference graph that *claims* to be the one the
function induces.  The passes recompute liveness from scratch and check
the claim edge by edge:

* ``interference-consistency`` — the graph is exactly the Chaitin
  interference graph of the function: same vertex set (every variable),
  no missing edges (``LIVE001``) and no phantom edges (``LIVE002``);
* ``chordality`` — the paper-aware mode (enabled via
  ``AnalysisContext.expect_chordal``, i.e. for strict-SSA inputs):
  the graph must be chordal (``LIVE003``) with clique number equal to
  Maxlive (``LIVE004``) — Theorem 1 of the paper.  When both hold an
  ``info`` diagnostic records the certified ω = Maxlive value;
* ``interference-definitions`` — for *strict* functions, Chaitin
  interference ("a def inside the other's live range") and
  intersection interference ("simultaneously live somewhere") must
  produce the same edge set (§2.1); a disagreement is ``LIVE005``.
  Skipped (not failed) on non-strict inputs, where the two genuinely
  differ.
"""

from __future__ import annotations

from typing import Iterator, Tuple

from ..graphs.chordal import clique_number_chordal, is_chordal
from ..graphs.interference import InterferenceGraph
from ..ir.cfg import Function
from ..ir.interference import chaitin_interference, intersection_interference
from ..ir.liveness import maxlive, strictness_violations
from .diagnostics import Diagnostic
from .registry import AnalysisContext, analysis_pass

GraphSubject = Tuple[Function, InterferenceGraph]


def _edge_key(u, v) -> Tuple[str, str]:
    a, b = sorted((str(u), str(v)))
    return (a, b)


@analysis_pass(
    "interference-consistency", "graph", codes=("LIVE001", "LIVE002")
)
def check_interference_consistency(
    subject: GraphSubject, ctx: AnalysisContext
) -> Iterator[Diagnostic]:
    """The graph is exactly the one liveness induces: no edge drift."""
    func, graph = subject
    expected = chaitin_interference(func, weighted=False)
    for v in expected.vertices:
        ctx.check_budget()
        if v not in graph:
            yield Diagnostic(
                "LIVE001", "error",
                f"variable {v} of the function is missing from the graph",
                where=str(v), obj=func.name, detail={"vertex": str(v)},
            )
    for v in graph.vertices:
        if v not in expected:
            yield Diagnostic(
                "LIVE002", "error",
                f"graph vertex {v} is not a variable of the function",
                where=str(v), obj=func.name, detail={"vertex": str(v)},
            )
    expected_edges = {_edge_key(u, v) for u, v in expected.edges()}
    actual_edges = {_edge_key(u, v) for u, v in graph.edges()}
    for u, v in sorted(expected_edges - actual_edges):
        ctx.check_budget()
        yield Diagnostic(
            "LIVE001", "error",
            f"missing interference edge {u} -- {v} "
            "(liveness says they interfere)",
            where=f"{u}--{v}", obj=func.name, detail={"edge": [u, v]},
        )
    for u, v in sorted(actual_edges - expected_edges):
        ctx.check_budget()
        yield Diagnostic(
            "LIVE002", "error",
            f"phantom interference edge {u} -- {v} "
            "(liveness says they never interfere)",
            where=f"{u}--{v}", obj=func.name, detail={"edge": [u, v]},
        )


@analysis_pass("chordality", "graph", codes=("LIVE003", "LIVE004"))
def check_chordality(
    subject: GraphSubject, ctx: AnalysisContext
) -> Iterator[Diagnostic]:
    """Paper mode: strict-SSA graphs are chordal with ω = Maxlive."""
    if not ctx.expect_chordal:
        return
    func, graph = subject
    ctx.check_budget()
    if not is_chordal(graph):
        yield Diagnostic(
            "LIVE003", "error",
            "interference graph of a strict-SSA function is not chordal "
            "(contradicts Theorem 1)",
            obj=func.name,
        )
        return
    ctx.check_budget()
    omega = clique_number_chordal(graph)
    pressure = maxlive(func)
    if omega != pressure:
        yield Diagnostic(
            "LIVE004", "error",
            f"clique number {omega} differs from Maxlive {pressure} "
            "(contradicts Theorem 1)",
            obj=func.name,
            detail={"omega": omega, "maxlive": pressure},
        )
    else:
        yield Diagnostic(
            "LIVE004", "info",
            f"chordal with omega = Maxlive = {omega} (Theorem 1 certified)",
            obj=func.name,
            detail={"omega": omega, "maxlive": pressure},
        )


@analysis_pass("interference-definitions", "graph", codes=("LIVE005",))
def check_interference_definitions(
    subject: GraphSubject, ctx: AnalysisContext
) -> Iterator[Diagnostic]:
    """Strict programs: Chaitin and intersection interference agree."""
    func, _graph = subject
    ctx.check_budget()
    if any(strictness_violations(func)):
        return  # the equivalence only holds for strict programs
    chaitin = chaitin_interference(func, weighted=False)
    ctx.check_budget()
    intersect = intersection_interference(func, weighted=False)
    chaitin_edges = {_edge_key(u, v) for u, v in chaitin.edges()}
    intersect_edges = {_edge_key(u, v) for u, v in intersect.edges()}
    for u, v in sorted(intersect_edges - chaitin_edges):
        yield Diagnostic(
            "LIVE005", "error",
            f"{u} and {v} have intersecting live ranges but no Chaitin "
            "interference (the definitions must agree on strict programs)",
            where=f"{u}--{v}", obj=func.name, detail={"edge": [u, v]},
        )
    # chaitin ⊆ intersection holds by construction; report drift anyway
    for u, v in sorted(chaitin_edges - intersect_edges):
        yield Diagnostic(
            "LIVE005", "error",
            f"{u} and {v} interfere under Chaitin's definition but their "
            "live ranges never intersect",
            where=f"{u}--{v}", obj=func.name, detail={"edge": [u, v]},
        )
