"""Diagnostic-driven static analysis for the paper's artifacts.

The :mod:`repro.analysis` subsystem independently verifies what the
rest of the library *claims*: SSA invariants, liveness/interference
consistency (with the paper-aware chordality mode of Theorem 1),
explicit certificates (PEOs, greedy elimination orders, colorings),
and coalescing/allocation translation validation.  Findings are
uniform :class:`~repro.analysis.diagnostics.Diagnostic` records with
stable codes — the catalog lives in ``docs/ANALYSIS.md``.

Entry points:

* :func:`repro.analysis.runner.check_function` /
  :func:`~repro.analysis.runner.check_instance` /
  :func:`~repro.analysis.runner.check_coalescing_result` /
  :func:`~repro.analysis.runner.check_allocation` — object-level
  checks (also re-exported here, loaded lazily);
* the ``repro check`` CLI subcommand — files and corpora;
* ``verify=`` on the campaign engine — per-record certification
  (:mod:`repro.analysis.engine_check`).

The package sits on top of the stack: it imports the producing
layers, and only ``cli``, ``engine`` and ``serve`` import it.  This
``__init__`` stays lightweight (diagnostics + registry only); the
checkers are reachable lazily via module ``__getattr__``, so importing
the diagnostic types does not load every pass and producer.
"""

from __future__ import annotations

from .diagnostics import (
    SEVERITIES,
    Diagnostic,
    filter_diagnostics,
    format_diagnostic,
    max_severity,
    severity_rank,
)
from .registry import (
    PASS_KINDS,
    AnalysisContext,
    AnalysisPass,
    all_passes,
    analysis_pass,
    get_pass,
    passes_for,
)

__all__ = [
    "SEVERITIES",
    "Diagnostic",
    "filter_diagnostics",
    "format_diagnostic",
    "max_severity",
    "severity_rank",
    "PASS_KINDS",
    "AnalysisContext",
    "AnalysisPass",
    "all_passes",
    "analysis_pass",
    "get_pass",
    "passes_for",
    # lazy (PEP 562): runner + engine_check entry points
    "run_passes",
    "check_function",
    "check_instance",
    "check_coalescing_result",
    "check_allocation",
    "verify_record",
    "load_all_passes",
]

_LAZY = {
    "run_passes": "runner",
    "check_function": "runner",
    "check_instance": "runner",
    "check_coalescing_result": "runner",
    "check_allocation": "runner",
    "verify_record": "engine_check",
}


def load_all_passes() -> None:
    """Import every pass module so the registry is fully populated."""
    from . import (  # noqa: F401  (imported for registration side effects)
        certificates,
        coalescing_check,
        flow_check,
        liveness_check,
        ssa_check,
    )


def __getattr__(name: str) -> object:
    if name in _LAZY:
        import importlib

        module = importlib.import_module(f".{_LAZY[name]}", __name__)
        return getattr(module, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
