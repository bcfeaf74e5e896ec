"""Campaign-time verification: certify engine task records.

:func:`verify_record` is the bridge between the campaign engine and
the analysis passes.  Its subject — the instance a coalescing strategy
ran on, or an allocator's input function and allocation — is a
:class:`repro.engine.tasks.Built` from the one builder,
:func:`repro.engine.tasks.build`: :func:`~repro.engine.tasks.run_task`
hands over the one it ran (``built=``); without one the input is
borrowed from the builder here, as ``run_task`` borrows it, and an
allocation is re-run by the same table runner.  If the input no longer
matches the fingerprint taken before the strategy ran, the strategy
mutated it: ``ENG002``, and the record is not certified.  That
comparison settles the borrow, so a verification without ``built=``
leaves the build memo's entry trusted.

A coalescing payload's partition is rebuilt from its
``coalesced_pairs`` and translation-validated
(:func:`certify_payload`): merged classes never interfere
(``COAL001``/``COAL002``), the recorded aggregates match the partition
(``COAL005``), and — for a strategy whose
:data:`~repro.engine.tasks.STRATEGY_TABLE` contract is a
greedy-k-colorable quotient — the quotient is greedy-k-colorable,
re-certified through an explicit elimination-order witness
(``COAL004``).  An allocation's final code is rebuilt from its input
and its per-round spill decisions and the payload's assignment is
checked over it (:func:`certify_allocation`).  A payload that cannot be
reconciled with its subject at all (unknown vertices, wrong sizes,
differing fields) is ``ENG001``.

Verification runs under a deterministic step :class:`~repro.budget.
Budget` (:data:`VERIFY_MAX_STEPS`), so a pathological instance degrades
to a ``BUDGET001`` diagnostic and the verification status
``budget_exceeded`` instead of stalling a worker — mirroring how task
execution itself treats budgets as results, not failures.

The returned *verification dict* is attached to the task record under
``record["verification"]``::

    {"status": "certified" | "failed" | "budget_exceeded" | "skipped",
     "reason": <why, when skipped>,
     "diagnostics": [<Diagnostic.as_dict()>, ...]}

Verification never changes ``task_hash``/``result_hash``: it is
metadata about a record, not part of the task's semantic outcome.
"""

from __future__ import annotations

from dataclasses import replace
from typing import Any, Dict, List, Mapping, Optional

from ..budget import Budget
from ..engine.tasks import (
    FAULT_GENERATORS, STRATEGY_TABLE, _allocation_payload, _build, _settle,
)
from ..graphs.dense import DenseGraph
from ..graphs.interference import Coalescing
from ..intervals.linear_scan import CodeFacts, LinearScanResult
from ..obs import NULL_TRACER, Tracer
from .coalescing_check import (
    CoalescingClaim, code_facts, is_greedy_contract,
)
from .diagnostics import Diagnostic
from .registry import AnalysisContext
from .runner import run_passes

__all__ = [
    "VERIFY_MAX_STEPS",
    "verify_record",
    "certify_payload",
    "certify_allocation",
]

#: Step budget for one record's verification — deterministic (a step
#: budget, not a wall-clock one) so cache-verification outcomes are
#: reproducible across machines.
VERIFY_MAX_STEPS = 2_000_000


def _diag_dicts(diagnostics: List[Diagnostic]) -> List[Dict[str, Any]]:
    return [d.as_dict() for d in diagnostics]


def _slot_of_name(twin: DenseGraph) -> Dict[str, int]:
    """``str(vertex) -> slot`` over a twin's vertices (the last vertex
    wins a shared name), kept on the twin (:meth:`~repro.graphs.dense.
    DenseGraph.kept`) and read by every payload certified on it."""
    return {str(v): i for i, v in enumerate(twin.names)}


def certify_payload(
    instance: Any,
    payload: Mapping[str, Any],
    strategy: str,
    k: int,
    budget: Optional[Budget] = None,
    tracer: Tracer = NULL_TRACER,
) -> List[Diagnostic]:
    """Re-validate a coalescing task payload against its instance.

    Checks the payload's instance-shape fields (``instance``,
    ``vertices``, ``edges``, ``affinities``) against ``instance``
    (``ENG001``), rebuilds the partition implied by
    ``payload["coalesced_pairs"]`` as a :class:`~repro.graphs.
    interference.Coalescing` of the graph, merged pair by pair on the
    slots of its dense twin (a pair that would merge interfering
    vertices is ``COAL001`` and merges nothing), and runs the
    ``coalescing`` passes on it with the payload's aggregates as the
    claimed ledger.
    """
    graph = instance.graph
    out: List[Diagnostic] = []
    shape = {
        "instance": instance.name,
        "vertices": len(graph),
        "edges": graph.num_edges(),
        "affinities": graph.num_affinities(),
    }
    for key, actual in shape.items():
        if key in payload and payload[key] != actual:
            out.append(Diagnostic(
                "ENG001", "error",
                f"payload says {key} is {payload[key]!r} but the "
                f"instance has {actual!r}",
                obj=instance.name,
                detail={"field": key, "claimed": payload[key],
                        "actual": actual},
            ))
    partition = Coalescing(graph)
    slot_of = partition.twin.kept("slot-of-name", _slot_of_name)
    for pair in payload.get("coalesced_pairs", ()):
        u_name, v_name = str(pair[0]), str(pair[1])
        u, v = slot_of.get(u_name), slot_of.get(v_name)
        if u is None or v is None:
            missing = u_name if u is None else v_name
            out.append(Diagnostic(
                "ENG001", "error",
                f"payload coalesces {missing}, which is not a vertex of "
                "the instance",
                where=missing, obj=instance.name,
                detail={"vertex": missing, "pair": [u_name, v_name]},
            ))
            continue
        if not partition.union_slots(u, v):
            out.append(Diagnostic(
                "COAL001", "error",
                f"payload coalesces {u_name} and {v_name}, but that "
                "merge puts interfering vertices in one class",
                where=f"{u_name}--{v_name}", obj=instance.name,
                detail={"pair": [u_name, v_name]},
            ))
    claim = CoalescingClaim(
        graph=graph,
        partition=partition,
        k=k,
        conservative=is_greedy_contract(strategy),
        expected={
            key: payload[key]
            for key in ("residual_weight", "coalesced_weight", "coalesced")
            if key in payload
        },
    )
    ctx = AnalysisContext(k=k, budget=budget, tracer=tracer,
                          obj=instance.name)
    out.extend(run_passes(claim, "coalescing", ctx))
    return out


def certify_allocation(
    func: Any,
    result: Any,
    payload: Mapping[str, Any],
    budget: Optional[Budget] = None,
    tracer: Tracer = NULL_TRACER,
    facts: Any = None,
) -> List[Diagnostic]:
    """Certify an allocation payload from the allocator's decisions.

    ``func`` is the input code and ``result`` the
    :class:`~repro.intervals.linear_scan.LinearScanResult` that claims
    to allocate it.  The result is a certificate, not trusted: an
    allocation is its spill choices plus a colouring of the rewritten
    code.  So the final code is rebuilt by replaying
    :func:`repro.allocator.spill.spill_everywhere` on ``func`` once per
    entry of ``result.spill_rounds`` (``ENG001`` if it differs from
    ``result.function``), every payload field is compared with the one
    ``result`` yields (``ENG001`` per differing field), and the
    ``allocation`` passes (``ALLOC*``/``INTV*``) run on the *payload's*
    assignment and spill list over the rebuilt code.

    ``facts`` is ``func``'s :class:`~repro.intervals.linear_scan.
    CodeFacts` from the build memo, if the caller has them.  The replay
    walks their :meth:`~repro.intervals.linear_scan.CodeFacts.spilled`
    chain, the one the allocator walked, so the rebuilt code is
    usually the allocator's own final code (then the comparison is an
    identity check) and the passes read its memoised liveness, rows
    and intervals.  Without ``facts`` the chain starts from fresh facts
    of ``func`` and lives for this call only.
    """
    out: List[Diagnostic] = []
    expected = _allocation_payload(result)
    for key in sorted(set(expected) | set(payload)):
        if expected.get(key) != payload.get(key):
            out.append(Diagnostic(
                "ENG001", "error",
                f"allocation payload field {key!r} is "
                f"{payload.get(key)!r} but the allocation yields "
                f"{expected.get(key)!r}",
                obj=func.name,
                detail={"field": key},
            ))
    link = CodeFacts(func) if facts is None else facts
    for victims in result.spill_rounds:
        link = link.spilled(victims)
    rebuilt = link.function
    if rebuilt is not result.function \
            and rebuilt.fingerprint() != result.function.fingerprint():
        out.append(Diagnostic(
            "ENG001", "error",
            "the allocation's final code is not its input rewritten by "
            f"its {len(result.spill_rounds)} recorded spill round(s)",
            obj=func.name,
            detail={"field": "function"},
        ))
    try:
        assignment = {str(v): r for v, r in payload.get("assignment", ())}
        spilled = [str(v) for v in payload.get("spilled", ())]
    except (TypeError, ValueError):
        return out  # unreadable fields: already ENG001 above
    claim = LinearScanResult(
        function=rebuilt,
        assignment=assignment,
        k=result.k,
        spilled=spilled,
        interval_variant=result.interval_variant,
    )
    ctx = AnalysisContext(k=result.k, budget=budget, tracer=tracer,
                          obj=func.name)
    code_facts(rebuilt, ctx, known=link)
    out.extend(run_passes(claim, "allocation", ctx))
    return out


def _certify(
    spec: Any,
    payload: Mapping[str, Any],
    budget: Budget,
    tracer: Tracer,
    built: Any,
) -> List[Diagnostic]:
    entry = STRATEGY_TABLE[spec.strategy]
    handed = built is not None
    lent = checked = None
    if not handed:
        # borrowed as run_task borrows its input: the ENG002 comparison
        # below settles the lend, so a memoised input stays trusted
        built, lent = _build(spec, lend=True)
    try:
        if not handed and entry.variant is not None:
            built = replace(built, result=entry.run(
                built.subject, built.k, facts=built.facts))
        checked = built.intact()
        if not checked:
            return [Diagnostic(
                "ENG002", "error",
                f"strategy {spec.strategy!r} mutated its input instance: "
                "the graph or function it was handed changed while it ran",
                detail={"strategy": spec.strategy},
            )]
        if entry.variant is not None:
            return certify_allocation(built.source, built.result, payload,
                                      budget=budget, tracer=tracer,
                                      facts=built.facts)
        return certify_payload(built.source, payload, spec.strategy,
                               built.k, budget=budget, tracer=tracer)
    finally:
        if checked is None:
            checked = built.intact()
        _settle(lent, checked)


def verify_record(
    spec: Any,
    record: Mapping[str, Any],
    *,
    budget: Optional[Budget] = None,
    tracer: Tracer = NULL_TRACER,
    built: Any = None,
) -> Dict[str, Any]:
    """Certify one task record; return the verification dict.

    Fault-injection tasks, custom ``call`` tasks (opaque payloads), and
    records without an ``ok`` status are skipped, not failed.
    ``built`` is what :func:`repro.engine.tasks.run_task` built and ran
    for the record (a :class:`repro.engine.tasks.Built`); without it
    the subject comes from :func:`repro.engine.tasks.build`, and an
    allocation is re-run by its table runner.  Allocation tasks then
    route through :func:`certify_allocation`; everything else is a
    coalescing task and routes through :func:`certify_payload`.
    """
    status = record.get("status")
    if status != "ok":
        return {"status": "skipped",
                "reason": f"record status is {status!r}",
                "diagnostics": []}
    if spec.generator in FAULT_GENERATORS:
        return {"status": "skipped",
                "reason": "fault-injection task",
                "diagnostics": []}
    if STRATEGY_TABLE[spec.strategy].run is None:
        return {"status": "skipped",
                "reason": "custom call task has an opaque payload",
                "diagnostics": []}
    payload = record.get("payload")
    if not isinstance(payload, Mapping):
        return {
            "status": "failed",
            "diagnostics": _diag_dicts([Diagnostic(
                "ENG001", "error",
                f"ok record has a non-mapping payload ({type(payload).__name__})",
            )]),
        }
    if budget is None:
        budget = Budget(max_steps=VERIFY_MAX_STEPS)
    tracer.count("analysis.records_verified")
    with tracer.span("analysis/verify-record"):
        diagnostics = _certify(spec, payload, budget, tracer, built)
    if any(d.code == "BUDGET001" for d in diagnostics):
        status_out = "budget_exceeded"
    elif any(d.severity == "error" for d in diagnostics):
        status_out = "failed"
    else:
        status_out = "certified"
    reported = [d for d in diagnostics if d.severity != "info"]
    return {"status": status_out, "diagnostics": _diag_dicts(reported)}
