#!/usr/bin/env python
"""Wall time of the whole-row mask deciders next to their oracles.

Two tables, each timed in one process on the ``examples/llvm`` corpus
at k = Maxlive:

* the greedy-k-colourability verdict: the k-core peel
  (``repro.graphs.dense.greedy_core``) against the sequential
  elimination (``repro.graphs.dense.greedy_elimination_order``) on each
  function's interference graph, and on the graphs the brute-force
  test builds by merging each non-interfering affinity;
* the allocation certificates: the row-mask ALLOC and INTV passes
  against the per-edge and per-pair loops kept as oracles in
  ``tests/reference``, on both linear-scan variants at k = Maxlive and
  Maxlive - 1 (the allocation tasks of an ``e2ebench`` pass).

Each cell is a median over repeated untraced runs.  Usage, from the
root of a checkout::

    python benchmarks/row_mask_walls.py
"""

import os
import statistics
import sys
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path[:0] = [os.path.join(ROOT, "src"), ROOT]

from repro.analysis import AnalysisContext, load_all_passes  # noqa: E402
from repro.analysis.coalescing_check import (  # noqa: E402
    check_allocation_validity,
)
from repro.analysis.interval_check import check_interval_allocation  # noqa: E402
from repro.frontend.corpus import corpus_paths, parse_path  # noqa: E402
from repro.frontend.lower import lower_module  # noqa: E402
from repro.graphs.dense import (  # noqa: E402
    DenseGraph,
    greedy_core,
    greedy_elimination_order,
)
from repro.intervals.linear_scan import linear_scan_allocate  # noqa: E402
from repro.ir.interference import chaitin_interference  # noqa: E402
from repro.ir.liveness import maxlive  # noqa: E402
from tests import reference as ref  # noqa: E402


def median_ms(run, repeats):
    times = []
    for _ in range(repeats):
        t0 = time.perf_counter()
        run()
        times.append(time.perf_counter() - t0)
    return statistics.median(times) * 1e3


def merged_graphs(graph, dense):
    """The brute-force test's trial graphs: one merge per affinity."""
    out = []
    for u, v, _ in graph.affinities():
        i, j = dense.index[u], dense.index[v]
        if not dense.has_edge(i, j):
            trial = dense.copy()
            trial.merge_in_place(i, j)
            out.append(trial)
    return out


def greedy_table(functions):
    print("| graph | elimination ms | peel ms |")
    print("| --- | ---: | ---: |")
    rest = [0.0, 0.0]
    for func in functions:
        graph = chaitin_interference(func)
        k = maxlive(func)
        dense = DenseGraph.from_graph(graph)
        repeats = 30 if len(graph) > 100 else 300
        seq = median_ms(lambda: greedy_elimination_order(dense, k), repeats)
        peel = median_ms(lambda: greedy_core(dense, k), repeats)
        if len(graph) <= 100:
            rest[0] += seq
            rest[1] += peel
            continue
        print(f"| {func.name} (V={len(graph)}, E={graph.num_edges()}, "
              f"k={k}) | {seq:.3f} | {peel:.3f} |")
        trials = merged_graphs(graph, dense)
        seq = sum(median_ms(lambda t=t: greedy_elimination_order(t, k), 5)
                  for t in trials)
        peel = sum(median_ms(lambda t=t: greedy_core(t, k), 5)
                   for t in trials)
        print(f"| {func.name}, {len(trials)} merged graphs (sum) "
              f"| {seq:.2f} | {peel:.2f} |")
    print(f"| functions with V <= 100 (sum) | {rest[0]:.3f} "
          f"| {rest[1]:.3f} |")


def certificate_table(functions):
    passes = (
        ("ALLOC", ref.check_allocation_validity, check_allocation_validity),
        ("INTV", ref.check_interval_allocation, check_interval_allocation),
    )
    totals = {name: [0.0, 0.0] for name, _, _ in passes}
    tasks = 0
    print()
    print("| allocation task | pass | oracle ms | row-mask ms |")
    print("| --- | --- | ---: | ---: |")
    for func in functions:
        ml = maxlive(func)
        for variant in ("classic", "second-chance"):
            for k in [ml] + ([ml - 1] if ml - 1 >= 2 else []):
                result = linear_scan_allocate(func, k, variant=variant)
                tasks += 1
                for name, oracle, mine in passes:
                    slow = median_ms(lambda: list(
                        oracle(result, AnalysisContext(k=k))), 5)
                    fast = median_ms(lambda: list(
                        mine(result, AnalysisContext(k=k))), 5)
                    totals[name][0] += slow
                    totals[name][1] += fast
                    if func.name == "chacha_mix":
                        print(f"| chacha_mix {variant} k={k} | {name} "
                              f"| {slow:.1f} | {fast:.1f} |")
    for name, (slow, fast) in totals.items():
        print(f"| all {tasks} tasks (sum) | {name} | {slow:.1f} "
              f"| {fast:.1f} |")


def main():
    load_all_passes()
    functions = [f for path in corpus_paths()
                 for f in lower_module(parse_path(path))]
    greedy_table(functions)
    certificate_table(functions)


if __name__ == "__main__":
    main()
