#!/usr/bin/env python
"""Wall time of each pinned dense kernel next to its reference twin.

Runs every case of the pinned snapshot suite that has a dict-of-set
twin in ``tests/reference`` (build, mcs, color, intervals, coalesce)
and times the dense runner and the twin on the same input, in one
process, as the minimum over ``REPEATS`` untraced runs.  The dense
column is what ``repro bench snapshot`` records as ``wall_ms``; the
reference column is the same-session yardstick that the snapshot no
longer stores.  The last rows, outside the pinned suite, time
strategies on the corpus's slowest coalescing function,
``chacha_block.ll:chacha_mix`` at k = Maxlive, against their
``tests/reference`` twins: iterated register coalescing
(``irc_allocate`` against ``tests/reference/irc.py``), the exact
conservative optimum, on ``interp.ll:interp_run`` instead, where it
finishes (the branch and bound on the dense twin against
``tests/reference/exact.py``'s union-find copy and dict quotient per
node), the brute-force
conservative worklist (kept k-cores against a whole-graph re-check per
test), optimistic coalescing (in-place de-coalescing against a
rebuilt dict quotient per round), biased colouring (colour-class masks
on the twin against forbidden-colour sets), the classic linear scan of
``chacha_mix`` at k = Maxlive - 1 on its memoised facts (two heaps
and a kept scan order against an active list rebuilt per interval and
the intervals re-sorted per round) and one clique-tree rebuild of its
graph (one backward sweep against a binary search per vertex).  Usage,
from the root of a checkout::

    python benchmarks/reference_walls.py
"""

import os
import sys
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path[:0] = [os.path.join(ROOT, "src"), ROOT]

from repro.allocator.irc import irc_allocate  # noqa: E402
from repro.bench import pinned_suite  # noqa: E402
from repro.coalescing.biased import biased_greedy_coloring  # noqa: E402
from repro.coalescing.conservative import conservative_coalesce  # noqa: E402
from repro.coalescing.exact import optimal_coalescing  # noqa: E402
from repro.coalescing.optimistic import optimistic_coalesce  # noqa: E402
from repro.engine.tasks import TaskSpec, build  # noqa: E402
from repro.graphs.chordal import _clique_tree_walk  # noqa: E402
from repro.intervals import linear_scan  # noqa: E402
from repro.obs import NULL_TRACER  # noqa: E402
from tests import reference as ref  # noqa: E402
from tests.reference import exact as ref_exact  # noqa: E402
from tests.reference import irc as ref_irc  # noqa: E402

REPEATS = 20

TWINS = {
    "build": ref.chaitin_interference,
    "mcs": ref.maximum_cardinality_search,
    "color": ref.greedy_coloring,
    "intervals": ref.build_intervals,
    "coalesce": ref.conservative_coalesce,
}


def best_ms(run):
    best = float("inf")
    for _ in range(REPEATS):
        t0 = time.perf_counter()
        run()
        best = min(best, time.perf_counter() - t0)
    return best * 1e3


def row(label, dense_run, reference_run):
    dense = best_ms(dense_run)
    slow = best_ms(reference_run)
    print(f"| {label} | {dense:.2f} | {slow:.2f} | {dense / slow:.2f} |")


def _sorting_list_scan(order, k, costs, tracer):
    """The reference classic scan, sorting its intervals as every round
    did before the scan order was kept on the facts."""
    ordered = sorted(order, key=lambda iv: (iv.start, iv.end, str(iv.var)))
    return ref.scan_classic(ordered, k, costs, tracer)


def _reference_linear_scan(func, k, facts):
    scan = linear_scan._scan_classic
    linear_scan._scan_classic = _sorting_list_scan
    try:
        return linear_scan.linear_scan_allocate(func, k, facts=facts)
    finally:
        linear_scan._scan_classic = scan


def main():
    print("| kernel / instance | dense ms | reference ms | ratio |")
    print("| --- | ---: | ---: | ---: |")
    for case in pinned_suite():
        twin = TWINS.get(case["kernel"])
        if twin is None:
            continue
        row(f"{case['kernel']} / {case['instance']}",
            lambda: case["run"](NULL_TRACER), lambda: twin(*case["args"]))
    built = build(TaskSpec(generator="llvm", seed=0, strategy="irc",
                           params={"path": "chacha_block.ll",
                                   "function": "chacha_mix"}))
    graph, k = built.subject, built.k
    row(f"irc / chacha_mix k={k}", lambda: irc_allocate(graph, k),
        lambda: ref_irc.irc_allocate(graph, k))
    interp = build(TaskSpec(generator="llvm", seed=0, strategy="exact",
                            params={"path": "interp.ll",
                                    "function": "interp_run"}))
    row(f"exact / interp_run k={interp.k}",
        lambda: optimal_coalescing(interp.subject, interp.k),
        lambda: ref_exact.optimal_conservative_coalescing(interp.subject,
                                                          interp.k))
    row(f"brute / chacha_mix k={k}",
        lambda: conservative_coalesce(graph, k, test="brute"),
        lambda: ref.conservative_coalesce(graph, k, test="brute"))
    row(f"optimistic / chacha_mix k={k}",
        lambda: optimistic_coalesce(graph, k),
        lambda: ref.optimistic_coalesce(graph, k))
    row(f"biased / chacha_mix k={k}",
        lambda: biased_greedy_coloring(graph, k),
        lambda: ref.biased_greedy_coloring(graph, k))
    alloc = build(TaskSpec(generator="llvm", seed=0, strategy="linear-scan",
                           k=k - 1, params={"path": "chacha_block.ll",
                                            "function": "chacha_mix"}))
    func, facts = alloc.source, alloc.facts
    row(f"linear-scan / chacha_mix k={k - 1}",
        lambda: linear_scan.linear_scan_allocate(func, k - 1, facts=facts),
        lambda: _reference_linear_scan(func, k - 1, facts))
    twin = graph.dense()
    row("clique tree / chacha_mix", lambda: _clique_tree_walk(twin),
        lambda: ref.clique_tree_walk(twin))


if __name__ == "__main__":
    main()
