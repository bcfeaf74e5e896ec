"""A5/A6 — spill-heuristic ablation and local-allocation baseline.

* A5: the Chaitin potential-spill metric (cost/degree vs cost vs
  degree): spilled variables and weighted spill cost over a batch of
  programs — the knob the paper's Section 1 critique of
  "spill-everywhere with no clearly-specified placement" turns on.
* A6: Belady local allocation on straight-line blocks: memory
  operations as k grows, plus the interval-graph identity local
  Maxlive = colours used by the optimal interval sweep.
"""

import random

import pytest

from conftest import emit
from repro.allocator import chaitin_allocate
from repro.analysis import filter_diagnostics
from repro.analysis.runner import check_allocation
from repro.ir import GeneratorConfig, construct_ssa, eliminate_phis, random_function
from repro.ir.cfg import BasicBlock
from repro.ir.instructions import Instr
from tests.reference.local import (
    belady_local_allocate,
    block_intervals,
    color_intervals,
    max_overlap,
)

METRICS = ["cost_degree", "cost", "degree"]


def test_spill_metric_ablation(benchmark):
    programs = [
        eliminate_phis(
            construct_ssa(
                random_function(seed, GeneratorConfig(num_vars=10, max_stmts=8))
            )
        )
        for seed in range(8)
    ]
    k = 3
    rows = []
    for metric in METRICS:
        spilled = 0
        residual = 0
        for func in programs:
            result = chaitin_allocate(func, k, spill_metric=metric)
            assert filter_diagnostics(check_allocation(result), "error") == []
            spilled += len(result.spilled)
            residual += result.residual_moves
        rows.append((metric, spilled, residual))
    benchmark(chaitin_allocate, programs[0], k)
    emit(
        benchmark,
        f"A5: Chaitin potential-spill metric ablation (k = {k}, 8 programs)",
        ["metric", "total spilled vars", "total residual moves"],
        rows,
    )
    # every metric must produce a valid allocation; the classic ratio
    # should not be the worst of the three
    by_metric = {m: s for m, s, _ in rows}
    assert by_metric["cost_degree"] <= max(by_metric.values())


def _random_block(seed: int, length: int = 40, pool: int = 12) -> BasicBlock:
    rng = random.Random(seed)
    b = BasicBlock("b")
    defined = []
    for _ in range(length):
        dst = f"v{rng.randrange(pool)}"
        uses = tuple(
            rng.choice(defined) for _ in range(rng.randint(0, 2)) if defined
        )
        b.instrs.append(Instr("const" if not uses else "add", (dst,), uses))
        defined.append(dst)
    return b


def test_local_allocation_curve(benchmark):
    blocks = [_random_block(seed) for seed in range(6)]
    rows = []
    for k in (2, 3, 4, 6, 8):
        ops = sum(
            belady_local_allocate(b, k).spill_operations for b in blocks
        )
        rows.append((k, ops))
    benchmark(belady_local_allocate, blocks[0], 4)
    emit(
        benchmark,
        "A6a: Belady local allocation, memory operations vs k (6 blocks)",
        ["k", "total loads+stores"],
        rows,
    )
    ops_by_k = dict(rows)
    assert ops_by_k[2] >= ops_by_k[4] >= ops_by_k[8]


def test_interval_identity(benchmark):
    rows = []
    for seed in range(8):
        b = _random_block(seed)
        ivs = block_intervals(b)
        overlap = max_overlap(ivs)
        coloring = color_intervals(ivs)
        used = max(coloring.values(), default=-1) + 1
        rows.append((seed, len(ivs), overlap, used))
    b = _random_block(0)
    benchmark(color_intervals, block_intervals(b))
    emit(
        benchmark,
        "A6b: interval sweep optimality — colours used == local Maxlive",
        ["seed", "intervals", "max overlap", "colours used"],
        rows,
    )
    assert all(r[2] == r[3] for r in rows)
