"""The ``compile`` workload and the stage-by-stage traced replay.

``compile`` calls :func:`repro.engine.tasks.run_task` in-process over
the task list, with no HTTP, pool or cache: it isolates frontend, IR,
coalescing or interval allocation, and verification.

The traced replay re-runs one task through the public function of each
layer, in the order ``run_task`` calls them, with a span around each
call and a counting :class:`~repro.obs.Tracer` handed to the kernels.
Its payload, ``result_hash`` and verification status must equal those
of ``run_task`` for the same task, so the replica cannot drift from the
pipeline it attributes.
"""

from __future__ import annotations

import hashlib
import json
import time
from typing import Any, Dict, List, Mapping, Sequence, Tuple

from calibrate import HostSpeed
from tasklist import (
    ALLOCATORS,
    Task,
    Tally,
    check_record,
    pass_orders,
    pass_seed,
)

#: Replay stages, in pipeline order; ``<stage>_ms`` is reported per pass.
STAGES = (
    "frontend.parse", "frontend.lower", "ir.liveness", "ir.interference",
    "coalescing.strategy", "intervals.allocate", "engine.encode",
    "analysis.verify",
)


def run_compile(tasks: Sequence[Task], reference: Mapping[Tuple, str],
                seconds: float, seed: int, tally: Tally,
                speed: HostSpeed) -> float:
    """Whole passes of ``run_task(verify=True)`` for ``seconds``; wall.

    Every run takes the same sequence of pass orders; ``seed`` picks
    the spec seeds.  ``speed`` is sampled between tasks.
    """
    from repro.engine.tasks import run_task

    t0 = time.perf_counter()
    for number, order in enumerate(pass_orders(tasks, 0)):
        for task in order:
            start = time.perf_counter()
            record = run_task(task.spec(pass_seed(seed, number)), verify=True)
            elapsed = time.perf_counter() - start
            tally.note(task, elapsed, check_record(task, record, reference),
                       record.get("payload"))
            speed.tick()
        if time.perf_counter() - t0 >= seconds:
            return time.perf_counter() - t0
    raise AssertionError("unreachable")


def replay(spec: Any, task: Task, spans: Any,
           work: Any) -> Tuple[Dict, str, str]:
    """One task, stage by stage: ``(payload, result_hash, verification)``.

    ``spans`` times each stage; ``work`` is the tracer the program's
    functions receive, so their work counters accumulate on it.
    """
    from repro.analysis.engine_check import verify_record
    from repro.engine.tasks import execute_strategy, task_hash
    from repro.frontend.corpus import corpus_dir
    from repro.frontend.lower import lower_module
    from repro.frontend.parser import LLModule, parse_module
    from repro.intervals.linear_scan import linear_scan_allocate
    from repro.ir.interference import (
        chaitin_interference,
        set_frequencies_from_loops,
    )
    from repro.ir.liveness import maxlive

    path = corpus_dir() / task.path
    text = path.read_text()
    with spans.span("frontend.parse"):
        module = parse_module(text)
    with spans.span("frontend.lower"):
        func = lower_module(LLModule([module.function(task.function)],
                                     source=str(path)))[0]
    set_frequencies_from_loops(func)
    k = task.k
    if k <= 0:
        with spans.span("ir.liveness"):
            k = maxlive(func)
    if task.strategy in ALLOCATORS:
        variant = "classic" if task.strategy == "linear-scan" \
            else "second-chance"
        with spans.span("intervals.allocate"):
            alloc = linear_scan_allocate(func, k, variant=variant,
                                         tracer=work)
        payload: Dict[str, Any] = {
            "function": alloc.function.name,
            "k": alloc.k,
            "variant": alloc.interval_variant,
            "assignment": sorted([str(v), r]
                                 for v, r in alloc.assignment.items()),
            "spilled": sorted(str(v) for v in alloc.spilled),
            "rounds": alloc.rounds,
            "intervals": alloc.num_intervals,
            "max_overlap": alloc.max_overlap,
            "coalesced_moves": alloc.coalesced_moves,
            "residual_moves": alloc.residual_moves,
        }
    else:
        with spans.span("ir.interference"):
            graph = chaitin_interference(func, weighted=True, tracer=work)
        with spans.span("coalescing.strategy"):
            result = execute_strategy(graph, k, task.strategy, tracer=work)
        payload = {
            "instance": f"{path.stem}:{func.name}",
            "vertices": len(graph),
            "edges": graph.num_edges(),
            "affinities": graph.num_affinities(),
            "coalesced": result.num_coalesced,
            "coalesced_weight": result.coalesced_weight,
            "residual_weight": result.residual_weight,
            "coalesced_pairs": sorted([str(u), str(v)]
                                      for u, v, _ in result.coalesced),
        }
    with spans.span("engine.encode"):
        task_hash(spec)
        canonical = json.dumps(payload, sort_keys=True, separators=(",", ":"))
        result_hash = hashlib.sha256(canonical.encode()).hexdigest()[:16]
    with spans.span("analysis.verify"):
        verification = verify_record(
            spec, {"status": "ok", "payload": payload}, tracer=work
        )
    return payload, result_hash, verification["status"]


class StageProfile:
    """Paired passes: ``run_task`` untraced, then the traced replay."""

    def __init__(self) -> None:
        from repro.obs import Tracer

        self.spans = Tracer()
        self.work = Tracer()
        self.passes = 0
        self.run_task_s = 0.0
        self.replay_s = 0.0
        self.mismatches: List[str] = []
        self.ir_sizes = {"ir.vertices": 0, "ir.edges": 0, "ir.affinities": 0}

    def profile_pass(self, order: Sequence[Task],
                     reference: Mapping[Tuple, str], seed: int = 0,
                     tally: Any = None, speed: Any = None) -> None:
        from repro.engine.tasks import run_task

        for task in order:
            spec = task.spec(seed)
            start = time.perf_counter()
            record = run_task(spec, verify=True)
            middle = time.perf_counter()
            payload, result_hash, verified = replay(spec, task, self.spans,
                                                    self.work)
            end = time.perf_counter()
            self.run_task_s += middle - start
            self.replay_s += end - middle
            if tally is not None:
                tally.note(task, middle - start,
                           check_record(task, record, reference),
                           record.get("payload"))
            if (payload != record.get("payload")
                    or result_hash != record.get("result_hash")
                    or verified != record["verification"]["status"]):
                self.mismatches.append(f"replay of {task.key} differs "
                                       "from run_task")
            if speed is not None:
                speed.tick()
            if self.passes == 0 and task.strategy == "briggs":
                self.ir_sizes["ir.vertices"] += payload["vertices"]
                self.ir_sizes["ir.edges"] += payload["edges"]
                self.ir_sizes["ir.affinities"] += payload["affinities"]
        self.passes += 1

    def metrics(self, scale: float = 1.0) -> Dict[str, Tuple[float, str]]:
        """Per-pass stage times and work, times ``scale`` (the share of
        a pass the measured workload actually computed).  Without a
        profiled pass every value is 0."""
        from repro.obs.names import KERNEL_WORK_COUNTERS

        per_pass = scale / self.passes if self.passes else 0.0
        spans = {name: stat["seconds"]
                 for name, stat in self.spans.spans().items()}
        out: Dict[str, Tuple[float, str]] = {}
        for stage in STAGES:
            out[f"{stage}_ms"] = (spans.get(stage, 0.0) * 1e3 * per_pass, "ms")
        out["engine.unattributed_ms"] = (
            (self.run_task_s - sum(spans.values())) * 1e3 * per_pass, "ms")
        for name in KERNEL_WORK_COUNTERS:
            out[name] = (self.work.counters.get(name, 0) * per_pass, "count")
        for name, value in self.ir_sizes.items():
            out[name] = (value * scale, "count")
        overhead = self.replay_s / self.run_task_s - 1 if self.passes else 0.0
        out["trace_overhead_frac"] = (overhead, "frac")
        return out


def run_compile_traced(tasks: Sequence[Task], reference: Mapping[Tuple, str],
                       seconds: float, seed: int, tally: Tally,
                       speed: HostSpeed) -> Tuple[float, StageProfile]:
    """Whole paired passes for ``seconds``; returns (wall, profile)."""
    profile = StageProfile()
    t0 = time.perf_counter()
    for number, order in enumerate(pass_orders(tasks, 0)):
        profile.profile_pass(order, reference, pass_seed(seed, number), tally,
                             speed)
        if time.perf_counter() - t0 >= seconds:
            return time.perf_counter() - t0, profile
    raise AssertionError("unreachable")
