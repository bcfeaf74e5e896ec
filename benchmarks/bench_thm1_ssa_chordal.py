"""T1 — Theorem 1: strict-SSA interference graphs are chordal with
ω(G) = Maxlive.

Regenerates, over a batch of random structured programs, the per-program
evidence (chordality flag, ω, Maxlive) and times the full pipeline
(SSA construction → interference graph → chordality + ω check).

The per-seed grid is declared as :mod:`repro.engine` task specs
(``strategy="call"`` with this module's :func:`thm1_task` as the
generator), so the same batch can be sharded across worker processes
by ``repro campaign``.
"""

import pytest

from conftest import emit
from repro.engine import TaskSpec, run_tasks
from repro.graphs.chordal import clique_number_chordal, is_chordal
from repro.ir import (
    GeneratorConfig,
    chaitin_interference,
    construct_ssa,
    maxlive,
    random_function,
)

SEEDS = list(range(12))
CONFIG = GeneratorConfig(num_vars=10, max_depth=3, max_stmts=6)


def thm1_task(seed, k, params, tracer, budget):
    """Engine task: one random program's Theorem 1 evidence row."""
    config = GeneratorConfig(
        num_vars=int(params.get("num_vars", CONFIG.num_vars)),
        max_depth=int(params.get("max_depth", CONFIG.max_depth)),
        max_stmts=int(params.get("max_stmts", CONFIG.max_stmts)),
    )
    ssa = construct_ssa(random_function(seed, config))
    graph = chaitin_interference(ssa)
    omega = clique_number_chordal(graph) if len(graph) else 0
    return {
        "seed": seed,
        "vars": len(graph),
        "edges": graph.num_edges(),
        "chordal": is_chordal(graph),
        "omega": omega,
        "maxlive": maxlive(ssa),
    }


def _specs():
    return [
        TaskSpec(
            generator="bench_thm1_ssa_chordal:thm1_task",
            strategy="call",
            seed=seed,
        )
        for seed in SEEDS
    ]


def test_theorem1_reproduction(benchmark):
    records = run_tasks(_specs(), workers=0)
    assert all(r["status"] == "ok" for r in records)
    rows = [r["payload"] for r in records]
    benchmark(thm1_task, SEEDS[0], 0, {}, None, None)
    emit(
        benchmark,
        "Theorem 1: chordality and omega = Maxlive on random SSA programs",
        ["seed", "|V|", "|E|", "chordal", "omega", "Maxlive"],
        [
            (r["seed"], r["vars"], r["edges"], r["chordal"], r["omega"], r["maxlive"])
            for r in rows
        ],
    )
    assert all(r["chordal"] for r in rows)
    assert all(r["omega"] == r["maxlive"] for r in rows)
