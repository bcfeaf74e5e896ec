"""Test suite; shared helpers live here and in :mod:`tests.reference`."""

from repro.analysis import AnalysisContext, filter_diagnostics
from repro.analysis.runner import check_allocation, run_passes


def allocation_errors(result):
    """The error-severity diagnostics ``check_allocation`` reports."""
    return filter_diagnostics(check_allocation(result), "error")


def ssa_findings(func):
    """``(code, where)`` of every ``ssa``-kind finding on ``func``."""
    ctx = AnalysisContext(obj=func.name)
    return [(d.code, d.where) for d in run_passes(func, "ssa", ctx)]
