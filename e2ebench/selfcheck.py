"""Self-check of the benchmark: a tiny version of every workload.

Run from the root of a checkout::

    python3 e2ebench/selfcheck.py

It runs each workload of ``BENCHMARK.json`` for one pass over two small
functions, untraced and traced, and checks that:

* every run is correct (the traced replay's payloads equal
  ``run_task``'s, every result hash matches the in-process reference);
* every metric ``BENCHMARK.json`` names is printed, with its unit, and
  nothing else;
* the last line of the report is the JSON result;
* without the package source beside it the benchmark exits non-zero and
  prints no result.

Exits 0 when everything holds, 1 otherwise.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path
from typing import List

from tasklist import ROOT, bootstrap

#: Two cheap functions, both with Maxlive - 1 >= 2, so both allocator
#: k values are exercised.
TINY = ("gcd", "sum_array")


def check_workloads(spec: dict) -> List[str]:
    from run import report, run_workload

    expected = {
        False: {m["name"]: m["unit"] for m in spec["end_to_end"]},
        True: {m["name"]: m["unit"] for m in spec["per_layer"]},
    }
    failures: List[str] = []
    for workload in (w["name"] for w in spec["workloads"]):
        for trace in (False, True):
            label = f"{workload} trace={int(trace)}"
            outcome = run_workload(workload, 1, 0.0, trace, TINY)
            result = outcome.result(trace)
            printed = {name: metric["unit"]
                       for name, metric in result["metrics"].items()}
            if not result["correct"]:
                failures.append(f"{label}: incorrect: {outcome.problems}")
            if printed != expected[trace]:
                missing = sorted(set(expected[trace]) - set(printed))
                extra = sorted(set(printed) - set(expected[trace]))
                failures.append(f"{label}: missing {missing}, extra {extra}, "
                                "or a unit differs")
            last = report(workload, 1, trace, outcome).splitlines()[-1]
            if json.loads(last) != result:
                failures.append(f"{label}: last line is not the result")
            print(f"{label}: {result['attempted']} ops, "
                  f"{len(printed)} metrics", flush=True)
    return failures


def check_bare_directory() -> List[str]:
    """Only BENCHMARK.json and the benchmark: must fail, print nothing."""
    scratch = ROOT / ".e2ebench-run"
    scratch.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(dir=scratch) as bare:
        shutil.copytree(ROOT / "e2ebench", Path(bare) / "e2ebench",
                        ignore=shutil.ignore_patterns("__pycache__"))
        shutil.copy(ROOT / "BENCHMARK.json", bare)
        proc = subprocess.run(
            [sys.executable, "e2ebench/run.py", "--workload", "compile",
             "--seed", "1", "--seconds", "1", "--trace", "0"],
            cwd=bare, capture_output=True, text=True, timeout=180,
        )
    if proc.returncode == 0 or proc.stdout.strip():
        return [f"bare directory: exit {proc.returncode}, "
                f"stdout {proc.stdout!r}"]
    print(f"bare directory: exit {proc.returncode}, no result")
    return []


def main() -> int:
    bootstrap()
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    failures = check_workloads(spec) + check_bare_directory()
    for failure in failures:
        print(f"FAIL {failure}")
    print("selfcheck " + ("failed" if failures else "passed"))
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
