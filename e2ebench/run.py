"""End-to-end benchmark over the real ``.ll`` corpus.

Usage (from the root of a checkout)::

    python3 e2ebench/run.py --workload compile --seed 1 --seconds 20 --trace 0

Workloads: ``compile`` (in-process ``run_task``), ``serve-cold`` (a
``repro serve`` subprocess, every request a cache miss) and
``serve-hot`` (the same service answering from its cache tiers).  See
``e2ebench/README.md`` for what each measures.

Human-readable lines start with ``#``; the last line of standard output
is one JSON object: ``correct``, ``attempted``, ``failed`` and
``metrics`` (end-to-end metrics with ``--trace 0``, per-layer metrics
with ``--trace 1``).
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import signal
import sys
import tempfile
import time
from pathlib import Path
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple

from calibrate import HostSpeed
from tasklist import (
    ROOT,
    Task,
    Tally,
    bootstrap,
    build_task_list,
    median,
    own_peak_rss_mb,
    pass_seed,
    reference_hashes,
)

#: Set-ups per run; ``setup_s`` is their median.
SETUP_REPEATS = 3

Metrics = Dict[str, Tuple[float, str]]

#: Serving and cache layers as the in-process workload sees them: idle.
NO_SERVE_LAYERS: Metrics = {
    "serve.compute_ms": (0.0, "ms"),
    "serve.dispatch_ms": (0.0, "ms"),
    "serve.http_ms": (0.0, "ms"),
    "serve.batch_size_mean": (0.0, "tasks"),
    "serve.worker_busy_frac": (0.0, "frac"),
    "serve.rejected": (0.0, "count"),
    "cache.memory_hit_frac": (0.0, "frac"),
    "cache.file_hit_frac": (0.0, "frac"),
    "cache.memory_evictions": (0.0, "count"),
    "cache.get_memory_us": (0.0, "us"),
    "cache.get_file_us": (0.0, "us"),
}


class Outcome:
    """What one workload run measured and found."""

    def __init__(self, tally: Tally, setups: List[float], wall: float,
                 rss_mb: float, layers: Metrics, info: Dict[str, Any],
                 problems: List[str], speed: HostSpeed) -> None:
        self.tally = tally
        self.setups = setups
        self.wall = wall
        self.speed = speed
        self.layers = speed.scale(layers)
        self.info = info
        self.problems = problems + tally.unexpected
        self.end_to_end = speed.scale(
            tally.end_to_end(median(setups), rss_mb))

    @property
    def correct(self) -> bool:
        return not self.problems and self.tally.passes >= 1

    def result(self, trace: bool) -> Dict[str, Any]:
        metrics = self.layers if trace else self.end_to_end
        return {
            "correct": self.correct,
            "attempted": self.tally.attempted,
            "failed": self.tally.failed,
            "metrics": {name: {"value": value, "unit": unit}
                        for name, (value, unit) in metrics.items()},
        }


def _timed_setups(setup: Callable[[], Any],
                  teardown: Callable[[Any], None]) -> Tuple[Any, List[float]]:
    """Run ``setup`` ``SETUP_REPEATS`` times; keep the last result."""
    times: List[float] = []
    state = None
    for _ in range(SETUP_REPEATS):
        if state is not None:
            teardown(state)
        start = time.perf_counter()
        state = setup()
        times.append(time.perf_counter() - start)
    return state, times


def _compile_workload(seed: int, seconds: float, trace: bool,
                     workdir: Path, functions: Optional[Sequence[str]],
                     speed: HostSpeed) -> Outcome:
    from compile_workload import run_compile, run_compile_traced

    def setup():
        tasks = build_task_list(functions)
        return tasks, reference_hashes(tasks)

    (tasks, reference), setups = _timed_setups(setup, lambda state: None)
    tally = Tally(len(tasks))
    layers: Metrics = {}
    problems: List[str] = []
    tally.start()
    if trace:
        wall, profile = run_compile_traced(tasks, reference, seconds, seed,
                                           tally, speed)
        layers = {**profile.metrics(), **NO_SERVE_LAYERS}
        problems += profile.mismatches
    else:
        wall = run_compile(tasks, reference, seconds, seed, tally, speed)
    info = {"workers": 0, "mem_entries": 0, "tasks": len(tasks)}
    return Outcome(tally, setups, wall, own_peak_rss_mb(), layers, info,
                   problems, speed)


def _serve_workload(hot: bool, seed: int, seconds: float, trace: bool,
                    workdir: Path, functions: Optional[Sequence[str]],
                    speed: HostSpeed) -> Outcome:
    from serve_workload import WORKERS, Responses, Server, drive

    problems: List[str] = []
    mem_entries = 1024  # the CLI default

    def setup():
        nonlocal mem_entries
        tasks = build_task_list(functions)
        reference = reference_hashes(tasks)
        extra: List[str] = []
        if hot:
            # below the working set: answers split between the tiers
            mem_entries = max(1, len(tasks) // 2)
            extra = ["--mem-entries", str(mem_entries)]
        server = Server(workdir, extra)
        if hot:
            warm = Tally(len(tasks))
            try:
                drive(server.port, tasks, 0.0, seed, lambda p: 0,
                      Responses(warm, reference))
            except BaseException:
                server.stop()
                raise
            problems.extend(f"warm pass: {p}" for p in warm.unexpected)
        return tasks, reference, server

    (tasks, reference, server), setups = _timed_setups(
        setup, lambda state: state[2].stop())
    tally = Tally(len(tasks))
    responses = Responses(tally, reference)

    # hot replays the warmed working set in seeded orders, which decide
    # the tier that answers; cold sends every run the same orders and
    # misses the cache on every pass
    order_seed = seed if hot else 0

    def task_seed(number: int) -> int:
        return 0 if hot else pass_seed(seed, number)

    try:
        before = server.counters() if trace else {}
        tally.start()
        wall = drive(server.port, tasks, seconds, order_seed, task_seed,
                     responses, speed.tick)
        after = server.counters() if trace else {}
        rss_mb = server.peak_rss_mb()
    finally:
        server.stop()
    layers: Metrics = {}
    if trace:
        last_seed = task_seed(tally.passes - 1)
        layers = _serve_layers(responses, before, after, wall, WORKERS)
        layers.update(_cache_get_layers(
            server.cache_dir, tasks, last_seed))
        layers.update(_replayed_compute(tasks, reference, responses,
                                        problems))
    info = {"workers": WORKERS, "mem_entries": mem_entries,
            "tasks": len(tasks)}
    return Outcome(tally, setups, wall, rss_mb, layers, info, problems,
                   speed)


def _serve_layers(responses: Any, before: Dict[str, float],
                  after: Dict[str, float], wall: float,
                  workers: int) -> Metrics:
    """Serving and cache-tier layers from responses and ``/metrics``."""
    from repro.obs.names import (
        CACHE_FILE_HITS,
        CACHE_MEMORY_EVICTIONS,
        CACHE_MEMORY_HITS,
    )

    def delta(name: str) -> float:
        flat = "repro_" + name.replace(".", "_") + "_total"
        return after.get(flat, 0.0) - before.get(flat, 0.0)

    tally = responses.tally
    batches = delta("serve.batches")
    return {
        "serve.compute_ms": (median(responses.compute_s) * 1e3, "ms"),
        "serve.dispatch_ms": (median(responses.dispatch_s) * 1e3, "ms"),
        "serve.http_ms": (median(responses.http_s) * 1e3, "ms"),
        "serve.batch_size_mean": (
            delta("serve.batched_tasks") / batches if batches else 0.0,
            "tasks"),
        "serve.worker_busy_frac": (
            sum(responses.compute_s) / (wall * workers), "frac"),
        "serve.rejected": (
            delta("serve.rejected_429") + delta("serve.rejected_503"),
            "count"),
        "cache.memory_hit_frac": (
            delta(CACHE_MEMORY_HITS) / tally.attempted, "frac"),
        "cache.file_hit_frac": (
            delta(CACHE_FILE_HITS) / tally.attempted, "frac"),
        "cache.memory_evictions": (
            delta(CACHE_MEMORY_EVICTIONS) / tally.passes, "count"),
    }


def _cache_get_layers(cache_dir: Path, tasks: Sequence[Task], seed: int,
                      rounds: int = 5) -> Metrics:
    """Median µs of ``TieredCache.get_memory`` and ``ResultCache.get``
    over the run's last pass of keys, read back from its cache."""
    from repro.engine.cache import MemoryCache, ResultCache, TieredCache
    from repro.engine.tasks import task_hash

    keys = [task_hash(task.spec(seed)) for task in tasks]
    file_cache = ResultCache(cache_dir)
    tiered = TieredCache(file_cache, MemoryCache(len(keys)))
    file_times: List[float] = []
    memory_times: List[float] = []
    for _ in range(rounds):
        for key in keys:
            start = time.perf_counter()
            record = file_cache.get(key)
            file_times.append(time.perf_counter() - start)
            if record is None:
                raise RuntimeError(f"cache entry {key} missing after the run")
            tiered.memory.put(key, record)
        for key in keys:
            start = time.perf_counter()
            tiered.get_memory(key)
            memory_times.append(time.perf_counter() - start)
    return {
        "cache.get_memory_us": (median(memory_times) * 1e6, "us"),
        "cache.get_file_us": (median(file_times) * 1e6, "us"),
    }


def _replayed_compute(tasks: Sequence[Task], reference: Dict,
                      responses: Any, problems: List[str]) -> Metrics:
    """Stage layers of the compute the served requests caused.

    The pool workers run ``run_task``, out of the benchmark's reach, so
    one pass is replayed in-process and scaled by the share of requests
    that were computed rather than answered from the cache.
    """
    from compile_workload import StageProfile

    profile = StageProfile()
    computed = len(responses.compute_s) / responses.tally.attempted
    if computed:
        profile.profile_pass(tasks, reference)
        problems += profile.mismatches
    return profile.metrics(scale=computed)


WORKLOADS: Dict[str, Callable[..., Outcome]] = {
    "compile": _compile_workload,
    "serve-cold": lambda *a: _serve_workload(False, *a),
    "serve-hot": lambda *a: _serve_workload(True, *a),
}


def run_workload(name: str, seed: int, seconds: float, trace: bool,
                 functions: Optional[Sequence[str]] = None) -> Outcome:
    """Run one workload in a scratch directory inside the checkout."""
    scratch = ROOT / ".e2ebench-run"
    scratch.mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(dir=scratch, prefix=f"{name}-"))
    try:
        return WORKLOADS[name](seed, seconds, trace, workdir, functions,
                               HostSpeed())
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


def report(name: str, seed: int, trace: bool, outcome: Outcome) -> str:
    """The ``#`` summary lines followed by the JSON result line."""
    tally = outcome.tally
    info = dict(outcome.info, nproc=os.cpu_count(),
                python=platform.python_version())
    lines = [
        f"# workload={name} seed={seed} trace={int(trace)} "
        f"passes={tally.passes} ops={tally.attempted} "
        f"failed={tally.failed} wall_s={outcome.wall:.3f}",
        "# environment " + " ".join(f"{k}={v}" for k, v in info.items()),
        "# setup_s samples " + " ".join(f"{s:.4f}" for s in outcome.setups),
        f"# host speed: calibration kernel mean "
        f"{1e3 * outcome.speed.mean_s():.4f} ms over "
        f"{len(outcome.speed.samples)} samples; timings below are scaled "
        f"by {outcome.speed.factor():.4f} to the reference host",
    ]
    windows = f"{tally.attempted} ops in {tally.latency_windows()} windows"
    samples = {"setup_s": f"{len(outcome.setups)} set-ups",
               "ops_per_s": f"{tally.passes} pass windows",
               "latency_p50_ms": windows,
               "latency_p99_ms": windows,
               "certified_frac": f"{tally.attempted} ops"}
    metrics = outcome.layers if trace else outcome.end_to_end
    for metric, (value, unit) in metrics.items():
        n = samples.get(metric, f"{tally.passes} passes")
        lines.append(f"#   {metric:<26} {value:>14.6g} {unit:<6} n={n}")
    if tally.by_function:
        heaviest = max(tally.by_function, key=tally.by_function.get)
        share = tally.by_function[heaviest] / sum(tally.by_function.values())
        lines.append(f"# heaviest function {heaviest}: {share:.1%} of "
                     "summed operation latency")
    for problem in outcome.problems:
        lines.append(f"# problem: {problem}")
    lines.append(json.dumps(outcome.result(trace)))
    return "\n".join(lines)


def pin_to_one_cpu() -> int:
    """Confine this process, and so every process it starts, to one CPU.

    The client and the service then share that CPU instead of waking
    each other across CPUs; on a shared virtual machine such cross-CPU
    wake-ups made serve-hot passes take 1x to 4x their unpinned best,
    in spells of seconds.  The calibration kernel runs on the same CPU.
    """
    cpu = min(os.sched_getaffinity(0))
    os.sched_setaffinity(0, {cpu})
    return cpu


def _exit_on_sigterm(signum: int, frame: Any) -> None:
    # unwinds through the ``finally`` blocks that stop the service
    raise SystemExit(128 + signum)


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    signal.signal(signal.SIGTERM, _exit_on_sigterm)
    bootstrap()
    cpu = pin_to_one_cpu()
    outcome = run_workload(args.workload, args.seed, args.seconds,
                           bool(args.trace))
    outcome.info["cpu"] = cpu
    print(report(args.workload, args.seed, bool(args.trace), outcome))
    return 0


if __name__ == "__main__":
    sys.exit(main())
