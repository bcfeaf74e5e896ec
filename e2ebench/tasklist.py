"""The shared task list, the reference table and per-operation checks.

Every workload runs whole passes over the same list: each function of
the ``examples/llvm`` corpus with eleven coalescing strategies at
k = Maxlive, plus the two linear-scan allocators at k = Maxlive and, when
Maxlive - 1 >= 2, at k = Maxlive - 1.  Maxlive-k tasks carry ``k = 0``,
the engine's "use Maxlive" convention, so ``run_task`` computes Maxlive
itself, as it does for a campaign.
"""

from __future__ import annotations

import os
import random
import resource
import statistics
import sys
import time
from dataclasses import dataclass
from pathlib import Path
from typing import (
    Any, Dict, Iterator, List, Mapping, Optional, Sequence, Tuple,
)

#: The checkout this benchmark sits in (its parent directory).
ROOT = Path(__file__).resolve().parents[1]

#: Coalescing strategies run at k = Maxlive.  The ``exact*`` solvers
#: stay out: their cost is exponential.
STRATEGIES = (
    "briggs", "george", "briggs_george", "george_extended", "brute",
    "aggressive", "optimistic", "biased", "chordal", "irc", "interval",
)

#: Allocators run at k = Maxlive and k = Maxlive - 1.
ALLOCATORS = ("linear-scan", "second-chance")

#: Tasks that fail certification on the baseline, with the diagnostic
#: code they fail with.  The checker rebuilds the partition from
#: ``coalesced_pairs``, which omits the strategies' witness-chain merges.
KNOWN_FAILURES = {
    ("chacha_block.ll", "chacha_mix", "biased", 0): "COAL004",
    ("chacha_block.ll", "chacha_mix", "chordal", 0): "COAL004",
}


#: Fewest operations a latency window holds (see Tally.latency_quantile).
MIN_WINDOW_OPS = 1000


def bootstrap() -> None:
    """Import the package from this checkout's ``src``, or exit 2.

    The benchmark builds nothing: it measures the source tree beside
    it.  A directory without that tree is an error, never a result.
    """
    src = ROOT / "src"
    if not (src / "repro" / "__init__.py").is_file():
        sys.stderr.write(f"error: no package source at {src}\n")
        raise SystemExit(2)
    corpus = ROOT / "examples" / "llvm"
    if not corpus.is_dir():
        sys.stderr.write(f"error: no corpus at {corpus}\n")
        raise SystemExit(2)
    sys.path.insert(0, str(src))
    os.environ["REPRO_LLVM_CORPUS"] = str(corpus)
    import repro

    if Path(repro.__file__).resolve().parents[1] != src:
        sys.stderr.write(f"error: imported repro from {repro.__file__}\n")
        raise SystemExit(2)


@dataclass(frozen=True)
class Task:
    """One entry of the task list (``k == 0`` means k = Maxlive)."""

    path: str
    function: str
    strategy: str
    k: int

    @property
    def key(self) -> Tuple[str, str, str, int]:
        return (self.path, self.function, self.strategy, self.k)

    def spec(self, seed: int = 0) -> Any:
        from repro.engine.tasks import TaskSpec

        return TaskSpec(
            generator="llvm", seed=seed, k=self.k, strategy=self.strategy,
            params={"path": self.path, "function": self.function},
        )

    def document(self, seed: int) -> Dict[str, Any]:
        """The ``POST /v1/task`` body for this task."""
        return {"task": self.spec(seed).as_dict(), "verify": True}


def build_task_list(functions: Optional[Sequence[str]] = None) -> List[Task]:
    """The task list over the corpus (optionally only some functions)."""
    from repro.frontend.corpus import corpus_paths, parse_path
    from repro.frontend.lower import lower_module
    from repro.ir.liveness import maxlive

    tasks: List[Task] = []
    for path in corpus_paths():
        for func in lower_module(parse_path(path)):
            if functions is not None and func.name not in functions:
                continue
            ml = maxlive(func)
            entry = (path.name, func.name)
            tasks += [Task(*entry, s, 0) for s in STRATEGIES]
            for allocator in ALLOCATORS:
                tasks.append(Task(*entry, allocator, 0))
                if ml - 1 >= 2:
                    tasks.append(Task(*entry, allocator, ml - 1))
    return tasks


def pass_orders(tasks: Sequence[Task], seed: int) -> Iterator[List[Task]]:
    """Endless seeded permutations of the task list, one per pass."""
    rng = random.Random(seed)
    while True:
        order = list(tasks)
        rng.shuffle(order)
        yield order


def pass_seed(seed: int, number: int) -> int:
    """The spec seed of pass ``number`` of a run with ``--seed seed``.

    The ``llvm`` generator ignores it, so the work stays the same, but
    the content address changes: no pass can hit another's cache entry.
    """
    return seed * 1_000_003 + number + 1


def reference_hashes(tasks: Sequence[Task]) -> Dict[Tuple, str]:
    """In-process ``result_hash`` of every task (no verification)."""
    from repro.engine.tasks import run_task

    table = {}
    for task in tasks:
        record = run_task(task.spec())
        if record["status"] != "ok":
            raise RuntimeError(f"reference run of {task} ended "
                               f"{record['status']}: {record['error']}")
        table[task.key] = record["result_hash"]
    return table


def check_record(task: Task, record: Mapping[str, Any],
                 reference: Mapping[Tuple, str]) -> Optional[str]:
    """Why one served or in-process record is a failure, or None."""
    if record.get("status") != "ok":
        return f"status {record.get('status')}"
    verification = record.get("verification") or {}
    if verification.get("status") != "certified":
        diagnostics = verification.get("diagnostics", [])
        codes = sorted({d["code"] for d in diagnostics})
        return f"verification {verification.get('status')} {','.join(codes)}"
    if record.get("result_hash") != reference[task.key]:
        return "result_hash differs from the in-process reference"
    return None


def is_known(task: Task, reason: str) -> bool:
    code = KNOWN_FAILURES.get(task.key)
    return code is not None and reason == f"verification failed {code}"


class Tally:
    """Outcomes of the measured operations of one run."""

    def __init__(self, tasks_per_pass: int) -> None:
        self.tasks_per_pass = tasks_per_pass
        self.latencies: List[float] = []
        self.attempted = 0
        self.failed = 0
        self.unexpected: List[str] = []
        self.residual_weight = 0.0
        self.spilled = 0
        self.by_function: Dict[str, float] = {}
        self.start()

    def note(self, task: Task, seconds: float, failure: Optional[str],
             payload: Optional[Mapping[str, Any]]) -> None:
        self.attempted += 1
        if self.attempted % self.tasks_per_pass == 0:
            self.windows.append(time.perf_counter())
        self.latencies.append(seconds)
        self.by_function[task.function] = \
            self.by_function.get(task.function, 0.0) + seconds
        if failure is not None:
            self.failed += 1
            if not is_known(task, failure):
                self.unexpected.append(f"{task.key}: {failure}")
        if payload is None:
            return
        if "residual_weight" in payload:
            self.residual_weight += payload["residual_weight"]
        else:
            # allocation payloads count residual copies, each weight 1
            self.residual_weight += payload["residual_moves"]
            self.spilled += len(payload["spilled"])

    @property
    def passes(self) -> int:
        return self.attempted // self.tasks_per_pass

    def start(self) -> None:
        """Mark the start of the measured operations."""
        # completion time of every pass-sized window of operations
        self.windows = [time.perf_counter()]

    def latency_quantile(self, q: float) -> float:
        """Median over windows of whole passes of the windows' q-quantile.

        Each window holds at least :data:`MIN_WINDOW_OPS` operations (the
        last one takes the remainder), so its p99 rests on ten or more
        samples beyond it.
        """
        size = self._window_ops
        bounds = [i * size for i in range(self.latency_windows())]
        bounds.append(len(self.latencies))
        return median([
            quantile(sorted(self.latencies[a:b]), q) * 1e3
            for a, b in zip(bounds, bounds[1:])
        ])

    def latency_windows(self) -> int:
        """How many windows :meth:`latency_quantile` takes the median of."""
        return max(1, len(self.latencies) // self._window_ops)

    @property
    def _window_ops(self) -> int:
        # the fewest whole passes holding MIN_WINDOW_OPS operations
        return self.tasks_per_pass * -(-MIN_WINDOW_OPS // self.tasks_per_pass)

    def end_to_end(self, setup_s: float,
                   rss_mb: float) -> Dict[str, Tuple[float, str]]:
        """The end-to-end metrics as ``name -> (value, unit)``.

        Throughput and latency are medians over windows of completed
        operations, so a short stall of the machine moves one window,
        not the result.
        """
        spans = [b - a for a, b in zip(self.windows, self.windows[1:])]
        return {
            "setup_s": (setup_s, "s"),
            "ops_per_s": (self.tasks_per_pass / median(spans), "1/s"),
            "latency_p50_ms": (self.latency_quantile(0.50), "ms"),
            "latency_p99_ms": (self.latency_quantile(0.99), "ms"),
            "certified_frac": (1 - self.failed / self.attempted, "frac"),
            "residual_move_weight": (self.residual_weight / self.passes,
                                     "weight"),
            "spilled_vars": (self.spilled / self.passes, "count"),
            "peak_rss_mb": (rss_mb, "MB"),
        }


def quantile(sorted_values: Sequence[float], q: float) -> float:
    """Linear-interpolation quantile of an ascending sequence."""
    if len(sorted_values) == 1:
        return sorted_values[0]
    position = q * (len(sorted_values) - 1)
    low = int(position)
    high = min(low + 1, len(sorted_values) - 1)
    return sorted_values[low] + (sorted_values[high] - sorted_values[low]) \
        * (position - low)


def median(values: Sequence[float]) -> float:
    return statistics.median(values) if values else 0.0


def own_peak_rss_mb() -> float:
    """Peak resident set of this process, in MB."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
