#!/usr/bin/env python
"""Where a warm verified ``compile`` pass spends its time, on the real path.

Runs the corpus task list (``tests.corpus_tasks()``, the 260 tasks the
end-to-end benchmark's ``compile`` workload serves) through
``run_task(spec, verify=True)`` once to warm the per-process build
memo, then ``PASSES`` more times.  Each record's own spans split its
wall time into the strategy or allocator (``engine-task``), the
verifier's pass bodies (the ``analysis/verify-record/analysis/*``
spans), the rest of the verifier (``analysis/verify-record`` less its
passes: rebuilding the partition or the final code, the pass runner,
the verification dict) and the rest of ``run_task`` (memo lookup and
its fingerprint check, hashing, payload encoding, tracer).  Prints the
median milliseconds per pass of each stage, for coalescing and
allocation tasks apart, with the quartiles (one pass: its value).
Usage, from the root of a checkout (pin it to one core for stable
numbers)::

    taskset -c 0 python benchmarks/compile_stages.py [PASSES]
"""

import os
import statistics
import sys
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path[:0] = [os.path.join(ROOT, "src"), ROOT]

from repro.engine import run_task  # noqa: E402
from repro.engine.tasks import ALLOCATION_STRATEGIES  # noqa: E402
from tests import corpus_tasks  # noqa: E402

PASSES = 9

#: The spans of the verifier's passes inside a record's verification.
PASS_SPANS = "analysis/verify-record/analysis/"


def one_pass(specs):
    """``{stage: seconds}`` summed over one pass of ``specs``."""
    total = {}
    for spec in specs:
        kind = "allocation" if spec.strategy in ALLOCATION_STRATEGIES \
            else "coalescing"
        t0 = time.perf_counter()
        record = run_task(spec, verify=True)
        wall = time.perf_counter() - t0
        spans = {s["name"]: s["seconds"] for s in record["trace"]["spans"]}
        strategy = spans.get("engine-task", 0.0)
        verify = spans.get("analysis/verify-record", 0.0)
        passes = sum(seconds for name, seconds in spans.items()
                     if name.startswith(PASS_SPANS))
        for stage, seconds in ((f"{kind} strategy", strategy),
                               (f"{kind} verify passes", passes),
                               (f"{kind} verify rest", verify - passes),
                               (f"{kind} run_task rest",
                                wall - strategy - verify),
                               ("pass total", wall)):
            total[stage] = total.get(stage, 0.0) + seconds
    return total


def main(passes):
    specs = list(corpus_tasks().values())
    one_pass(specs)  # warm the build memo, as e2ebench's set-up does
    samples = {}
    for _ in range(passes):
        for stage, seconds in one_pass(specs).items():
            samples.setdefault(stage, []).append(seconds * 1e3)
    print(f"| stage ({len(specs)} tasks, {passes} warm passes) "
          "| median ms/pass | quartiles |")
    print("| --- | ---: | ---: |")
    for stage in sorted(samples):
        values = samples[stage]
        # one pass has no spread: its quartiles are its value
        q1, _, q3 = (statistics.quantiles(values, n=4) if len(values) > 1
                     else values * 3)
        print(f"| {stage} | {statistics.median(values):.1f} "
              f"| {q1:.1f}–{q3:.1f} |")


if __name__ == "__main__":
    main(int(sys.argv[1]) if len(sys.argv) > 1 else PASSES)
