#!/usr/bin/env python3
"""Full register allocation two ways: the integrated Chaitin–Briggs
loop versus the decoupled two-phase SSA allocator, on the same program.

Run:  python examples/full_allocation.py [k]
"""

import sys

from repro.allocator import chaitin_allocate, ssa_allocate
from repro.analysis import filter_diagnostics
from repro.analysis.runner import check_allocation
from repro.engine.tasks import STRATEGY_TABLE
from repro.ir import (
    GeneratorConfig,
    construct_ssa,
    eliminate_phis,
    maxlive,
    random_function,
)


def main(k: int = 4) -> None:
    func = random_function(42, GeneratorConfig(num_vars=12, max_stmts=7, move_fraction=0.3))
    ssa = construct_ssa(func)
    print(f"program: {len(func.blocks)} blocks, "
          f"{len(func.variables())} variables, Maxlive(SSA) = {maxlive(ssa)}, "
          f"k = {k}")
    print()

    print("== Chaitin-Briggs (integrated) ==")
    phi_free = eliminate_phis(ssa)
    result = chaitin_allocate(phi_free, k, coalesce_test="briggs_george")
    assert filter_diagnostics(check_allocation(result), "error") == []
    print(f"iterations:       {result.iterations}")
    print(f"spilled:          {len(result.spilled)} -> {result.spilled[:6]}"
          f"{'...' if len(result.spilled) > 6 else ''}")
    print(f"coalesced moves:  {result.coalesced_moves}")
    print(f"residual moves:   {result.residual_moves}")
    print()

    print("== two-phase SSA allocator (spill first, then colour+coalesce) ==")
    for strategy in ("briggs", "brute", "optimistic"):
        result, stats = ssa_allocate(func, k, STRATEGY_TABLE[strategy].run)
        assert filter_diagnostics(check_allocation(result), "error") == []
        residual = (
            stats.coalescing.residual_weight if stats.coalescing else 0.0
        )
        print(f"coalescing={strategy:10}: spilled {len(result.spilled):2}, "
              f"phase-2 graph chordal={stats.chordal}, "
              f"residual move weight {residual:g}")

    print()
    print("registers used by the last run:",
          1 + max(result.assignment.values(), default=-1))


if __name__ == "__main__":
    main(int(sys.argv[1]) if len(sys.argv) > 1 else 4)
