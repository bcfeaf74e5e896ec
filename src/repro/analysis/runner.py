"""The pass runner and high-level check entry points.

:func:`run_passes` executes every registered pass of one kind on a
subject, wrapping each pass in an obs span (``analysis/<pass>``),
counting ``analysis.passes`` / ``analysis.diagnostics`` once per run,
and converting a :exc:`~repro.budget.BudgetExceeded` escape into one
deterministic ``BUDGET001`` warning (remaining passes of the run are
skipped — a spent step budget would fail them all identically).

On top of it sit the object-level checkers the CLI and the engine
verify hook share:

* :func:`check_function` — CFG structure, strictness, SSA invariants
  (auto-detected or forced), then the liveness/interference and
  paper-mode chordality passes on the induced (or a supplied) graph;
* :func:`check_instance` — a challenge instance: k sanity plus
  ``info``-level structure evidence (chordality, greedy-k-colorability);
* :func:`check_coalescing_result` — translation-validate a
  :class:`~repro.coalescing.base.CoalescingResult`;
* :func:`check_allocation` — validate an
  :class:`~repro.allocator.chaitin.AllocationResult`.
"""

from __future__ import annotations

from typing import Any, List, Mapping, Optional

from ..budget import Budget, BudgetExceeded
from ..obs import NULL_TRACER, Tracer
from . import certificates as _certificates  # noqa: F401  (registers passes)
from . import flow_check as _flow_check  # noqa: F401
from . import interval_check as _interval_check  # noqa: F401
from . import liveness_check as _liveness_check  # noqa: F401
from .coalescing_check import claim_from_result
from .diagnostics import Diagnostic, sort_diagnostics
from .provenance import attach_provenance
from .registry import AnalysisContext, passes_for
from .ssa_check import looks_like_ssa

__all__ = [
    "run_passes",
    "check_function",
    "check_instance",
    "check_coalescing_result",
    "check_allocation",
]


def run_passes(
    subject: Any, kind: str, ctx: AnalysisContext
) -> List[Diagnostic]:
    """Run every registered pass of ``kind`` on ``subject``.

    ``analysis.passes`` counts the passes entered and
    ``analysis.diagnostics`` the findings of the passes that finished,
    each counted once per run.
    """
    tracer = ctx.tracer
    out: List[Diagnostic] = []
    entered = finished = 0
    budget_hit: Optional[Diagnostic] = None
    try:
        for p in passes_for(kind):
            entered += 1
            with tracer.span(f"analysis/{p.name}"):
                try:
                    out += p.run(subject, ctx)
                except BudgetExceeded as exc:
                    tracer.count("analysis.budget_exceeded")
                    budget_hit = Diagnostic(
                        "BUDGET001", "warning",
                        f"verification budget exceeded ({exc.reason}) in "
                        f"pass {p.name!r}; remaining {kind} passes skipped",
                        obj=ctx.obj, passname=p.name,
                        detail={"reason": exc.reason, "steps": exc.steps},
                    )
                    break
            finished += 1
    finally:
        if entered:
            tracer.count("analysis.passes", entered)
        if finished:
            tracer.count("analysis.diagnostics", len(out))
    if budget_hit is not None:
        out.append(budget_hit)
    return out


def _has_errors(diagnostics: List[Diagnostic]) -> bool:
    return any(d.severity == "error" for d in diagnostics)


def _finalize(diagnostics: List[Diagnostic], func: Any) -> List[Diagnostic]:
    """Stamp provenance and impose the canonical emission order."""
    return sort_diagnostics(attach_provenance(diagnostics, func))


def check_function(
    func: Any,
    k: int = 0,
    expect_ssa: Any = "auto",
    expect_chordal: Optional[bool] = None,
    graph: Any = None,
    budget: Optional[Budget] = None,
    tracer: Tracer = NULL_TRACER,
) -> List[Diagnostic]:
    """Run every applicable pass on an IR function.

    ``expect_ssa`` may be True, False, or ``"auto"`` (check SSA
    invariants when the function has φs or is single-def, i.e. when SSA
    is plausibly intended).  ``expect_chordal`` defaults to the
    paper-aware setting: assert chordality exactly when the function
    passed the strictness and SSA checks (Theorem 1's hypothesis).
    ``graph`` optionally supplies an externally built interference
    graph to cross-check; by default the induced graph is rebuilt and
    the graph passes certify its paper properties.
    """
    ctx = AnalysisContext(k=k, budget=budget, tracer=tracer, obj=func.name)
    out = run_passes(func, "function", ctx)
    if _has_errors(out):
        # dominance/liveness need a well-formed, strict CFG
        return _finalize(out, func)
    out.extend(run_passes(func, "dataflow", ctx))
    check_ssa = looks_like_ssa(func) if expect_ssa == "auto" else bool(expect_ssa)
    if check_ssa:
        out.extend(run_passes(func, "ssa", ctx))
    if any(d.code == "BUDGET001" for d in out):
        return _finalize(out, func)
    if graph is None:
        from ..ir.interference import chaitin_interference

        graph = chaitin_interference(func, weighted=False)
    if expect_chordal is None:
        expect_chordal = check_ssa and not _has_errors(out)
    ctx.expect_chordal = expect_chordal
    out.extend(run_passes((func, graph), "graph", ctx))
    return _finalize(out, func)


def check_instance(
    instance: Any,
    budget: Optional[Budget] = None,
    tracer: Tracer = NULL_TRACER,
) -> List[Diagnostic]:
    """Check a challenge instance (a named graph + register count).

    An instance carries no IR, so there is no liveness to recompute;
    the checks are k sanity (warning on a non-positive bound) plus
    ``info`` evidence about the structure: chordality and whether the
    graph is greedy-k-colorable as given.
    """
    from ..graphs.chordal import is_chordal
    from ..graphs.greedy import is_greedy_k_colorable

    ctx = AnalysisContext(k=instance.k, budget=budget, tracer=tracer,
                          obj=instance.name)
    out: List[Diagnostic] = []
    with tracer.span("analysis/instance"):
        tracer.count("analysis.passes")
        if instance.k <= 0:
            out.append(Diagnostic(
                "INST001", "warning",
                f"instance declares a non-positive register count "
                f"k={instance.k}",
                obj=instance.name, detail={"k": instance.k},
            ))
        try:
            for u, v, w in instance.graph.affinities():
                ctx.check_budget()
                if instance.graph.has_edge(u, v):
                    out.append(Diagnostic(
                        "INST002", "info",
                        f"affinity ({u}, {v}) is frozen: the endpoints "
                        "interfere, so it can never be coalesced",
                        where=f"{u}--{v}", obj=instance.name,
                        detail={"affinity": [str(u), str(v)], "weight": w},
                    ))
            ctx.check_budget()
            chordal = is_chordal(instance.graph)
            colorable = (
                is_greedy_k_colorable(instance.graph, instance.k)
                if instance.k > 0 else False
            )
            shape = "chordal" if chordal else "not chordal"
            budgeted = (
                f"greedy-{instance.k}-colorable" if colorable
                else "not greedy-k-colorable as given"
            )
            out.append(Diagnostic(
                "INST003", "info",
                f"graph is {shape}; {budgeted}",
                obj=instance.name,
                detail={"chordal": chordal, "greedy_k_colorable": colorable},
            ))
        except BudgetExceeded as exc:
            tracer.count("analysis.budget_exceeded")
            out.append(Diagnostic(
                "BUDGET001", "warning",
                f"verification budget exceeded ({exc.reason}) while "
                "checking the instance structure",
                obj=instance.name,
                detail={"reason": exc.reason, "steps": exc.steps},
            ))
        tracer.count("analysis.diagnostics", len(out))
    return sort_diagnostics(out)


def check_coalescing_result(
    result: Any,
    k: int = 0,
    expected: Optional[Mapping[str, Any]] = None,
    budget: Optional[Budget] = None,
    tracer: Tracer = NULL_TRACER,
) -> List[Diagnostic]:
    """Translation-validate a coalescing result against its own graph."""
    claim = claim_from_result(result, k=k)
    if expected is not None:
        claim.expected = expected
    ctx = AnalysisContext(
        k=k, budget=budget, tracer=tracer,
        obj=result.strategy,
    )
    return sort_diagnostics(run_passes(claim, "coalescing", ctx))


def check_allocation(
    result: Any,
    budget: Optional[Budget] = None,
    tracer: Tracer = NULL_TRACER,
) -> List[Diagnostic]:
    """Validate an allocation result (assignment + spill bookkeeping)."""
    ctx = AnalysisContext(
        k=result.k, budget=budget, tracer=tracer,
        obj=result.function.name,
    )
    return sort_diagnostics(run_passes(result, "allocation", ctx))
