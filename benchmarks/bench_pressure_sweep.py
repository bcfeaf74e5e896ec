"""E2 — register-pressure sweep: the fraction of moves coalesced by
each strategy as Maxlive approaches k.

The paper's Sections 1 and 4 claim that conservative local rules
degrade precisely when the register pressure is close to the register
count (the regime aggressive SSA-based spilling produces), while the
global tests keep coalescing.  The sweep over the margin k − Maxlive
regenerates that crossover as a series.

The instance grid (margin × strategy × seed) is declared as
:mod:`repro.engine` task specs and executed through the campaign
engine's inline mode — the same specs, run with ``--workers N``
through ``repro campaign``, parallelize the sweep across processes.
"""

import random

import pytest

from conftest import attach_tracer, emit
from repro.engine import TaskSpec, expand_grid, run_tasks
from repro.engine.tasks import STRATEGY_TABLE
from repro.coalescing.conservative import conservative_coalesce
from repro.challenge.generator import pressure_instance
from repro.allocator import spill_costs, ssa_allocate
from repro.allocator.spill import is_spill_temp
from repro.analysis import filter_diagnostics
from repro.analysis.runner import check_allocation
from repro.intervals import linear_scan_allocate
from repro.ir import GeneratorConfig, construct_ssa, random_function
from repro.ir.liveness import maxlive

K = 7
MARGINS = [0, 1, 2, 3]
STRATEGIES = ["briggs", "george", "briggs_george", "brute", "optimistic"]
SEEDS = 6
ROUNDS = 9


def _specs():
    return expand_grid(
        {"margin": MARGINS, "strategy": STRATEGIES, "seed": {"count": SEEDS}},
        {"generator": "pressure", "k": K, "rounds": ROUNDS},
    )


def test_pressure_sweep(benchmark):
    specs = _specs()
    records = run_tasks(specs, workers=0)
    assert all(r["status"] == "ok" for r in records)
    coalesced = {(m, s): 0.0 for m in MARGINS for s in STRATEGIES}
    total = {(m, s): 0.0 for m in MARGINS for s in STRATEGIES}
    for spec, rec in zip(specs, records):
        key = (spec.params_dict()["margin"], spec.strategy)
        payload = rec["payload"]
        coalesced[key] += payload["coalesced_weight"]
        total[key] += payload["coalesced_weight"] + payload["residual_weight"]
    data = {
        key: (coalesced[key] / total[key] if total[key] else 1.0)
        for key in coalesced
    }
    inst = pressure_instance(K, ROUNDS, margin=0, rng=random.Random(0))
    benchmark(conservative_coalesce, inst.graph, K, "briggs")
    emit(
        benchmark,
        "E2: fraction of move weight coalesced vs margin k - Maxlive (k = 7)",
        ["strategy"] + [f"margin {m}" for m in MARGINS],
        [
            [s] + [f"{100 * data[(m, s)]:.1f}%" for m in MARGINS]
            for s in STRATEGIES
        ],
    )
    attach_tracer(benchmark, [r["trace"] for r in records], label="engine")
    # the paper's shape: at margin 0 local rules are clearly behind the
    # global tests; with slack everyone coalesces (almost) everything
    assert data[(0, "brute")] > data[(0, "briggs")]
    assert data[(0, "optimistic")] > data[(0, "briggs")]
    for s in STRATEGIES:
        assert data[(MARGINS[-1], s)] >= 0.99 * data[(0, s)]
    assert data[(MARGINS[-1], "briggs")] >= 0.95


# --- joint spill + coalesce regime (k below Maxlive) -----------------
#
# The sweep above keeps k >= Maxlive so spilling never triggers.  The
# companion regime pushes k *below* Maxlive (deficit = Maxlive - k) so
# spill-everywhere fires, and compares the graph-based two-phase
# allocator against the interval-based linear-scan family on both
# axes at once: what was spilled (cost under the loop-frequency model
# of repro.allocator.spill) and what the copies look like afterwards
# (coalesced vs residual moves).

JOINT_SEEDS = [2, 5, 9]
DEFICITS = [0, 1, 2]
JOINT_STRATEGIES = [
    ("ssa/briggs_george", None),
    ("ssa/optimistic", None),
    ("linear-scan", "classic"),
    ("second-chance", "second-chance"),
]


def _spilled_cost(spilled, costs):
    """Total frequency-weighted cost of the spilled variables.

    Later spill rounds evict ``.rN`` reload temporaries whose cost is
    accounted at their base variable's rate.
    """
    total = 0.0
    for var in spilled:
        base = var.rsplit(".r", 1)[0] if is_spill_temp(var) else var
        total += costs.get(var, costs.get(base, 1.0))
    return total


def test_joint_spill_coalesce(benchmark):
    funcs = [
        construct_ssa(
            random_function(seed, GeneratorConfig(num_vars=10))
        )
        for seed in JOINT_SEEDS
    ]
    rows = []
    results = {}
    for label, variant in JOINT_STRATEGIES:
        for deficit in DEFICITS:
            cost = spilled = coalesced = residual = 0.0
            for func in funcs:
                k = max(2, maxlive(func) - deficit)
                costs = spill_costs(func)
                if variant is None:
                    result, _ = ssa_allocate(
                        func, k, STRATEGY_TABLE[label.split("/")[1]].run
                    )
                else:
                    result = linear_scan_allocate(func, k, variant=variant)
                errors = filter_diagnostics(check_allocation(result), "error")
                assert not errors, (label, deficit, func.name)
                cost += _spilled_cost(result.spilled, costs)
                spilled += len(result.spilled)
                coalesced += result.coalesced_moves
                residual += result.residual_moves
            results[(label, deficit)] = (cost, spilled)
            rows.append([
                label, deficit, f"{cost:.1f}", int(spilled),
                int(coalesced), int(residual),
            ])
    inst_func = funcs[0]
    benchmark(
        linear_scan_allocate, inst_func,
        max(2, maxlive(inst_func) - 1), "second-chance",
    )
    emit(
        benchmark,
        "E2b: joint spill+coalesce regime, k = Maxlive - deficit",
        ["strategy", "deficit", "spilled cost", "spilled",
         "coalesced moves", "residual moves"],
        rows,
    )
    # deficit 0 is the paper's decoupled sweet spot: the two-phase
    # allocator needs no spills at k = Maxlive
    for label in ("ssa/briggs_george", "ssa/optimistic"):
        assert results[(label, 0)] == (0.0, 0.0), results[(label, 0)]
    # below Maxlive *everyone* must spill something
    for label, _ in JOINT_STRATEGIES:
        assert results[(label, 2)][1] > 0, (label, results[(label, 2)])
