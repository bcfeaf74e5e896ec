"""The analysis-pass registry and the shared analysis context.

A *pass* is a plain function ``fn(subject, ctx) -> Iterable[Diagnostic]``
registered under a unique name with the :func:`analysis_pass` decorator.
Passes declare a ``kind`` — what type of subject they check — so the
runner can select all passes applicable to a function, a graph, a
certificate, a coalescing, or an allocation result:

========  =======================================================
kind      subject passed to the pass
========  =======================================================
function  :class:`repro.ir.cfg.Function` (structure + strictness)
ssa       :class:`repro.ir.cfg.Function` in (claimed) strict SSA
dataflow  :class:`repro.ir.cfg.Function`, program diagnostics built
          on the :mod:`repro.ir.dataflow` framework
graph     ``(Function, InterferenceGraph)`` pair to cross-check
certificate  :class:`repro.analysis.certificates.Certificate` witness
coalescing  :class:`repro.analysis.coalescing_check.CoalescingClaim`
allocation  an allocation-result-like object (duck-typed)
========  =======================================================

Passes never mutate their subject, never raise on a *finding* (they
yield diagnostics instead), and let :exc:`repro.budget.BudgetExceeded`
escape — the runner converts it into a deterministic ``BUDGET001``
warning so campaign-time verification degrades instead of stalling.

The :class:`AnalysisContext` carries the cross-cutting knobs: the
register count ``k``, the optional :class:`~repro.budget.Budget`, the
:class:`~repro.obs.Tracer`, and mode flags such as ``expect_chordal``
(the paper-aware strict-SSA mode of the liveness pass).  It also
memoises the facts passes derive from their subject
(:meth:`AnalysisContext.fact`), so the passes of one run build each
one once.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import Any, Callable, Dict, Iterable, List, Optional, Tuple

from ..budget import Budget
from ..obs import NULL_TRACER, Tracer
from .diagnostics import Diagnostic

__all__ = [
    "PASS_KINDS",
    "AnalysisContext",
    "AnalysisPass",
    "analysis_pass",
    "get_pass",
    "passes_for",
    "all_passes",
]

#: The subject kinds a pass may declare.
PASS_KINDS: Tuple[str, ...] = (
    "function", "ssa", "dataflow", "graph", "certificate", "coalescing",
    "allocation",
)

PassFn = Callable[[Any, "AnalysisContext"], Iterable[Diagnostic]]


@dataclass
class AnalysisContext:
    """Shared knobs threaded through every pass of one analysis run."""

    k: int = 0
    expect_chordal: bool = False
    budget: Optional[Budget] = None
    tracer: Tracer = NULL_TRACER
    obj: str = ""
    params: Dict[str, Any] = field(default_factory=dict)
    #: the memo behind :meth:`fact`, not a knob: no constructor argument
    facts: Dict[Tuple[str, int], Tuple[Any, Any]] = field(
        default_factory=dict, init=False, repr=False, compare=False
    )

    def check_budget(self, steps: int = 1) -> None:
        """Account ``steps`` units of analysis work against the budget."""
        if self.budget is not None:
            self.budget.check(steps)

    def fact(
        self, name: str, subject: Any, build: Callable[[Any], Any]
    ) -> Any:
        """``build(subject)``, computed once per context.

        Keyed by ``name`` and the identity of ``subject``, so every pass
        of a run that derives the same fact from the same object — the
        liveness of an allocation's final code, the classes of a
        claim's partition — shares one computation.  The entry holds
        ``subject``, so its id cannot be reused while the context lives.
        Passes never mutate their subject or a fact, so an entry stays
        valid for the whole run.
        """
        key = (name, id(subject))
        entry = self.facts.get(key)
        if entry is None:
            entry = self.facts[key] = (subject, build(subject))
        return entry[1]


@dataclass(frozen=True)
class AnalysisPass:
    """A registered pass: metadata plus the checking function."""

    name: str
    kind: str
    codes: Tuple[str, ...]
    doc: str
    fn: PassFn

    def run(self, subject: Any, ctx: AnalysisContext) -> List[Diagnostic]:
        """Execute the pass, stamping each diagnostic with the pass name."""
        out: List[Diagnostic] = []
        for diag in self.fn(subject, ctx):
            if diag.passname != self.name:
                diag = replace(
                    diag, obj=diag.obj or ctx.obj, passname=self.name
                )
            out.append(diag)
        return out


_REGISTRY: Dict[str, AnalysisPass] = {}

#: ``kind -> passes``, filled by :func:`passes_for` and emptied by every
#: registration.
_BY_KIND: Dict[str, Tuple[AnalysisPass, ...]] = {}


def analysis_pass(
    name: str, kind: str, codes: Iterable[str] = ()
) -> Callable[[PassFn], PassFn]:
    """Register a checking function as a named analysis pass.

    ``codes`` declares the diagnostic codes the pass may emit (used by
    the docs generator and the CLI pass catalog).  Registering two
    passes under one name is a programming error and raises.
    """
    if kind not in PASS_KINDS:
        raise ValueError(f"unknown pass kind {kind!r} (one of {PASS_KINDS})")

    def register(fn: PassFn) -> PassFn:
        if name in _REGISTRY:
            raise ValueError(f"analysis pass {name!r} already registered")
        _BY_KIND.clear()
        _REGISTRY[name] = AnalysisPass(
            name=name,
            kind=kind,
            codes=tuple(codes),
            doc=(fn.__doc__ or "").strip().splitlines()[0] if fn.__doc__ else "",
            fn=fn,
        )
        return fn

    return register


def get_pass(name: str) -> AnalysisPass:
    """Look up one registered pass by name (``KeyError`` if absent)."""
    return _REGISTRY[name]


def passes_for(kind: str) -> Tuple[AnalysisPass, ...]:
    """All registered passes of one kind, in registration order.

    The registry is filtered once per kind until the next registration.
    """
    found = _BY_KIND.get(kind)
    if found is None:
        if kind not in PASS_KINDS:
            raise ValueError(
                f"unknown pass kind {kind!r} (one of {PASS_KINDS})")
        found = _BY_KIND[kind] = tuple(
            p for p in _REGISTRY.values() if p.kind == kind)
    return found


def all_passes() -> List[AnalysisPass]:
    """Every registered pass, in registration order."""
    return list(_REGISTRY.values())
