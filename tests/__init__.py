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


#: The coalescing strategies the end-to-end benchmark serves at
#: k = Maxlive (the exponential ``exact*`` solvers stay out).
CORPUS_STRATEGIES = (
    "briggs", "george", "briggs_george", "george_extended", "brute",
    "aggressive", "optimistic", "biased", "chordal", "irc", "interval",
)


def corpus_tasks():
    """``{key: spec}`` for the task list the end-to-end benchmark
    serves: every corpus function with each of
    :data:`CORPUS_STRATEGIES` at k = Maxlive (``k = 0``), plus both
    linear-scan allocators at Maxlive and, when it is at least 2,
    Maxlive - 1."""
    from repro.engine import TaskSpec
    from repro.frontend.corpus import corpus_functions
    from repro.ir.liveness import maxlive

    tasks = {}
    for path, func in corpus_functions():
        params = {"path": path.name, "function": func.name}
        below = maxlive(func) - 1
        runs = [(s, 0) for s in CORPUS_STRATEGIES] + [
            (s, k) for s in ("linear-scan", "second-chance")
            for k in ([0, below] if below >= 2 else [0])
        ]
        for strategy, k in runs:
            key = f"{path.name}:{func.name}:{strategy}:k={k}"
            tasks[key] = TaskSpec(generator="llvm", seed=0, k=k,
                                  strategy=strategy, params=params)
    return tasks
