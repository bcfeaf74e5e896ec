#!/usr/bin/env python
"""Wall time of each pinned dense kernel next to its reference twin.

Runs every case of the pinned snapshot suite that has a dict-of-set
twin in ``tests/reference`` (build, mcs, color, intervals, coalesce)
and times the dense runner and the twin on the same input, in one
process, as the minimum over ``REPEATS`` untraced runs.  The dense
column is what ``repro bench snapshot`` records as ``wall_ms``; the
reference column is the same-session yardstick that the snapshot no
longer stores.  Usage, from the root of a checkout::

    python benchmarks/reference_walls.py
"""

import os
import sys
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path[:0] = [os.path.join(ROOT, "src"), ROOT]

from repro.bench import pinned_suite  # noqa: E402
from repro.obs import NULL_TRACER  # noqa: E402
from tests import reference as ref  # noqa: E402

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


def main():
    print("| kernel / instance | dense ms | reference ms | ratio |")
    print("| --- | ---: | ---: | ---: |")
    for case in pinned_suite():
        twin = TWINS.get(case["kernel"])
        if twin is None:
            continue
        dense = best_ms(lambda: case["run"](NULL_TRACER))
        slow = best_ms(lambda: twin(*case["args"]))
        print(f"| {case['kernel']} / {case['instance']} | {dense:.2f} "
              f"| {slow:.2f} | {dense / slow:.2f} |")


if __name__ == "__main__":
    main()
