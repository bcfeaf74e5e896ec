#!/usr/bin/env python
"""What one file-tier cache operation costs, in µs, on a scratch directory.

Computes the records of every 16th corpus task (``tests.corpus_tasks()``,
the task list the end-to-end benchmark serves) once, then stores
``RECORDS`` of them under fresh 16-hex keys in a new
:class:`repro.engine.ResultCache` and times, one call at a time:

* a put of a new key (the write-back of a served cache miss);
* a put that rewrites a key (a verification upgrade);
* a get hit on the warm instance that wrote the records;
* a get hit on a fresh instance (its first call scans the log: the
  mean carries that scan, the median does not);
* a get miss (every request of ``serve-cold`` probes the file tier
  before it computes).

Prints the median and mean µs per operation of each, over ``ROUNDS``
rounds (median of the round medians, mean of all calls).  Usage, from
the root of a checkout (pin it to one core for stable numbers)::

    taskset -c 0 python benchmarks/cache_store.py [RECORDS]
"""

import json
import os
import shutil
import statistics
import sys
import tempfile
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path[:0] = [os.path.join(ROOT, "src"), ROOT]

from repro.engine import ResultCache, run_task  # noqa: E402
from tests import corpus_tasks  # noqa: E402

RECORDS = 2000
ROUNDS = 3


def timed(call, keys, samples):
    """Call ``call(key)`` for each key, appending each call's µs."""
    for key in keys:
        t0 = time.perf_counter()
        call(key)
        samples.append((time.perf_counter() - t0) * 1e6)


def one_round(root, records):
    """``{operation: [µs per call]}`` of one round in a new directory."""
    keys = [f"{i:016x}" for i in range(len(records))]
    absent = [f"{i:016x}" for i in range(len(records), 2 * len(records))]
    by_key = {key: {**record, "key": key}
              for key, record in zip(keys, records)}
    cache = ResultCache(root)
    samples = {name: [] for name in (
        "put, new key", "put, rewrite", "get hit, warm instance",
        "get hit, fresh instance", "get miss")}
    timed(lambda key: cache.put(key, by_key[key]), keys,
          samples["put, new key"])
    timed(lambda key: cache.put(key, by_key[key]), keys,
          samples["put, rewrite"])
    timed(cache.get, keys, samples["get hit, warm instance"])
    timed(ResultCache(root).get, keys, samples["get hit, fresh instance"])
    timed(cache.get, absent, samples["get miss"])
    return samples


def main(count):
    specs = list(corpus_tasks().values())[::16]
    pool = [run_task(spec, verify=True) for spec in specs]
    records = [pool[i % len(pool)] for i in range(count)]
    scratch = tempfile.mkdtemp(prefix="cache-store-")
    medians, calls = {}, {}
    try:
        for n in range(ROUNDS):
            for name, values in one_round(
                    os.path.join(scratch, str(n)), records).items():
                medians.setdefault(name, []).append(statistics.median(values))
                calls.setdefault(name, []).extend(values)
    finally:
        shutil.rmtree(scratch)
    size = sum(len(json.dumps(record, sort_keys=True))
               for record in pool) // len(pool)
    print(f"| operation ({count} records of ~{size} B, {ROUNDS} rounds) "
          "| median µs | mean µs |")
    print("| --- | ---: | ---: |")
    for name in medians:
        print(f"| {name} | {statistics.median(medians[name]):.1f} "
              f"| {statistics.fmean(calls[name]):.1f} |")


if __name__ == "__main__":
    main(int(sys.argv[1]) if len(sys.argv) > 1 else RECORDS)
