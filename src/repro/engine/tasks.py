"""Declarative task specs and the in-process task executor.

A :class:`TaskSpec` is the unit of work of the campaign engine: an
instance *generator* (plus its parameters and an **explicit** seed), a
*strategy* to run on the generated instance, and an optional in-process
solver budget.  Specs are plain data — JSON-round-trippable, hashable,
and executable in any worker process — and :func:`task_hash` gives each
one a stable content address (spec + engine code version) that keys the
result cache.

Three generator families:

* **instance generators** — ``"pressure"`` and ``"program"`` (the
  :mod:`repro.challenge.generator` corpus), ``"llvm"`` (a real function
  parsed and lowered from a ``.ll`` file by :mod:`repro.frontend` —
  ``params["path"]`` names the file, optional ``params["function"]``
  selects a function and ``params["sha256"]`` pins the file content),
  or a dotted ``"module:function"`` path returning a
  :class:`~repro.challenge.format.ChallengeInstance`;
* **custom calls** — ``strategy="call"`` with a dotted generator path:
  the function is called as ``fn(seed, k, params, tracer, budget)`` and
  its JSON-serializable return value becomes the task payload (how the
  theorem benches define their grids);
* **fault injection** — ``"sleep"`` (hangs for ``params["seconds"]``)
  and ``"crash"`` (kills the worker process), used by the tests and the
  docs to demonstrate that the pool contains hangs and crashes as
  single failed tasks.

:func:`run_task` executes one spec in the current process and returns
the *task record* (see ``docs/ENGINE.md`` for the schema).  Timeouts
that require killing a process live in :mod:`repro.engine.pool`; this
module only handles the cooperative :class:`repro.budget.Budget`.
"""

from __future__ import annotations

import hashlib
import importlib
import json
import random
import threading
import time
from dataclasses import dataclass, replace
from typing import Any, Callable, Dict, List, Mapping, Optional, Tuple

from ..budget import Budget, BudgetExceeded
from ..challenge.format import ChallengeInstance
from ..challenge.generator import pressure_instance, program_instance
from ..coalescing import conservative_coalesce, optimistic_coalesce
from ..coalescing.aggressive import aggressive_coalesce
from ..coalescing.base import CoalescingResult
from ..coalescing.biased import biased_coloring_result
from ..coalescing.chordal_strategy import chordal_incremental_coalesce
from ..coalescing.exact import optimal_conservative_coalescing
from ..graphs.dense import DENSE_TESTS
from ..obs import NULL_TRACER, Tracer

__all__ = [
    "ENGINE_VERSION",
    "TaskSpec",
    "task_hash",
    "expand_grid",
    "execute_strategy",
    "run_task",
    "Built",
    "INSTANCE_GENERATORS",
    "FAULT_GENERATORS",
    "STRATEGIES",
    "ALLOCATION_STRATEGIES",
]

#: Code-version tag mixed into every task hash.  Bump it whenever task
#: execution semantics change, so stale cached results are never reused.
ENGINE_VERSION = "3"

#: Built-in instance generators (see :func:`_generate_instance`).
INSTANCE_GENERATORS = ("pressure", "program", "llvm")

#: Fault-injection generators for exercising the pool's containment.
FAULT_GENERATORS = ("sleep", "crash")

#: Strategies the executor understands, beyond the conservative tests
#: of :data:`repro.graphs.dense.DENSE_TESTS`.  ``"call"`` marks a
#: custom task whose generator is a dotted callable returning the
#: payload directly.
EXTRA_STRATEGIES = (
    "aggressive", "optimistic", "biased", "chordal", "irc",
    "exact", "exact-kcolorable", "interval",
    "linear-scan", "second-chance", "call",
)

#: Strategies that run a register *allocator* over real code instead
#: of a coalescing strategy over a graph; they require the ``"llvm"``
#: generator (graph-only generators carry no code to allocate) and
#: produce an allocation payload (see :func:`_allocation_payload`).
ALLOCATION_STRATEGIES = ("linear-scan", "second-chance")

STRATEGIES = tuple(sorted(DENSE_TESTS)) + EXTRA_STRATEGIES


@dataclass(frozen=True)
class TaskSpec:
    """One unit of campaign work; plain, hashable, JSON-round-trippable.

    ``seed`` has **no default**: every task must say where its
    randomness comes from (the engine never falls back to the old
    silent ``random.Random(0)`` — see
    :func:`repro.graphs.generators.resolve_rng`).  ``params`` holds the
    generator-specific knobs (``rounds``, ``margin``, ``num_vars``,
    ``seconds`` …) as a sorted tuple of pairs so the spec stays
    hashable; use :meth:`params_dict` to read them.
    """

    generator: str
    seed: int
    k: int = 0
    strategy: str = "brute"
    params: Tuple[Tuple[str, Any], ...] = ()
    max_steps: Optional[int] = None
    max_seconds: Optional[float] = None

    def __post_init__(self) -> None:
        if not isinstance(self.seed, int) or isinstance(self.seed, bool):
            raise ValueError(
                f"TaskSpec seed must be an explicit int, got {self.seed!r}"
            )
        if isinstance(self.params, Mapping):
            object.__setattr__(
                self, "params", tuple(sorted(self.params.items()))
            )
        else:
            object.__setattr__(
                self, "params", tuple(sorted(tuple(p) for p in self.params))
            )
        known = (
            self.generator in INSTANCE_GENERATORS
            or self.generator in FAULT_GENERATORS
            or ":" in self.generator
        )
        if not known:
            raise ValueError(
                f"unknown generator {self.generator!r} "
                f"(builtin: {INSTANCE_GENERATORS + FAULT_GENERATORS}; "
                "custom generators use a dotted 'module:function' path)"
            )
        if self.strategy not in STRATEGIES:
            raise ValueError(
                f"unknown strategy {self.strategy!r} (one of {STRATEGIES})"
            )

    def params_dict(self) -> Dict[str, Any]:
        """The generator parameters as a plain dict."""
        return dict(self.params)

    def as_dict(self) -> Dict[str, Any]:
        """JSON-serializable form (inverse of :meth:`from_dict`)."""
        return {
            "generator": self.generator,
            "seed": self.seed,
            "k": self.k,
            "strategy": self.strategy,
            "params": self.params_dict(),
            "max_steps": self.max_steps,
            "max_seconds": self.max_seconds,
        }

    @classmethod
    def from_dict(cls, data: Mapping[str, Any]) -> "TaskSpec":
        """Rebuild a spec from :meth:`as_dict` output (or a spec-file
        entry).  Unknown keys are rejected to catch typos early."""
        data = dict(data)
        params = dict(data.pop("params", {}))
        fields = {"generator", "seed", "k", "strategy",
                  "max_steps", "max_seconds"}
        unknown = set(data) - fields
        if unknown:
            raise ValueError(f"unknown TaskSpec fields: {sorted(unknown)}")
        if "seed" not in data:
            raise ValueError("TaskSpec requires an explicit seed")
        return cls(params=tuple(sorted(params.items())), **data)


def task_hash(spec: TaskSpec) -> str:
    """Stable content address of a task: spec + engine code version.

    16 hex chars of SHA-256 over the canonical JSON form.  Changing any
    spec field — or bumping :data:`ENGINE_VERSION` — changes the hash,
    so the result cache can never serve a stale or mismatched record.
    """
    canonical = json.dumps(
        {"engine": ENGINE_VERSION, **spec.as_dict()},
        sort_keys=True,
        separators=(",", ":"),
    )
    return hashlib.sha256(canonical.encode()).hexdigest()[:16]


_SPEC_FIELDS = ("generator", "seed", "k", "strategy",
                "max_steps", "max_seconds")


def expand_grid(
    grid: Mapping[str, Any],
    defaults: Optional[Mapping[str, Any]] = None,
) -> List[TaskSpec]:
    """Expand a parameter grid into the cartesian product of specs.

    Each grid key maps to a list of values (a scalar counts as a
    one-element list; a ``{"start": a, "count": n}`` mapping expands to
    ``range(a, a + n)`` — the usual shape of a seed axis).  Keys that
    are :class:`TaskSpec` fields set the field; any other key becomes a
    generator parameter.  ``defaults`` supplies scalar values for axes
    the grid doesn't sweep.  Axis order (dict insertion order)
    determines task order, which is part of campaign determinism.
    """
    axes: List[Tuple[str, List[Any]]] = []
    merged: Dict[str, Any] = dict(defaults or {})
    merged.update(grid)
    for key, values in merged.items():
        if isinstance(values, Mapping):
            start = int(values.get("start", 0))
            count = int(values["count"])
            values = list(range(start, start + count))
        elif not isinstance(values, (list, tuple)):
            values = [values]
        axes.append((key, list(values)))
    specs: List[TaskSpec] = []

    def rec(i: int, chosen: Dict[str, Any]) -> None:
        if i == len(axes):
            fields = {k: v for k, v in chosen.items() if k in _SPEC_FIELDS}
            params = {k: v for k, v in chosen.items() if k not in _SPEC_FIELDS}
            specs.append(TaskSpec(params=tuple(sorted(params.items())),
                                  **fields))
            return
        key, values = axes[i]
        for value in values:
            chosen[key] = value
            rec(i + 1, chosen)
        del chosen[key]

    rec(0, {})
    return specs


# ----------------------------------------------------------------------
# execution
# ----------------------------------------------------------------------
def execute_strategy(
    graph: "InterferenceGraph",
    k: int,
    strategy: str,
    tracer: Tracer = NULL_TRACER,
    budget: Optional[Budget] = None,
) -> CoalescingResult:
    """Run one named coalescing strategy (the CLI shares this dispatch).

    ``budget`` only reaches the strategies that support cooperative
    budgets (the exact solvers); the heuristics are polynomial and rely
    on the pool's wall-clock timeout instead.
    """
    if strategy == "aggressive":
        return aggressive_coalesce(graph, tracer=tracer)
    if strategy == "optimistic":
        return optimistic_coalesce(graph, k, tracer=tracer)
    if strategy == "biased":
        return biased_coloring_result(graph, k, tracer=tracer)
    if strategy == "chordal":
        return chordal_incremental_coalesce(graph, k, tracer=tracer)
    if strategy == "irc":
        from ..allocator.irc import irc_coalescing_result

        return irc_coalescing_result(graph, k, tracer=tracer)
    if strategy in ("exact", "exact-kcolorable"):
        target = "greedy" if strategy == "exact" else "kcolorable"
        return optimal_conservative_coalescing(
            graph, k, target=target, budget=budget
        )
    if strategy == "interval":
        from ..intervals.coalesce import interval_coalesce

        return interval_coalesce(graph, tracer=tracer)
    return conservative_coalesce(graph, k, test=strategy, tracer=tracer)


def _resolve_dotted(path: str) -> Callable:
    module_name, _, attr = path.partition(":")
    if not module_name or not attr:
        raise ValueError(f"dotted generator must be 'module:function', "
                         f"got {path!r}")
    module = importlib.import_module(module_name)
    return getattr(module, attr)


def _corpus_path(params: Mapping[str, Any]) -> Any:
    """The ``.ll`` file an ``"llvm"`` spec names in ``params["path"]``."""
    import os

    from ..frontend.corpus import corpus_dir

    path = params.get("path")
    if path is None:
        raise ValueError("the llvm generator requires params['path']")
    if not os.path.exists(path):
        # bare file names resolve against the checked-in corpus, so
        # campaign specs stay portable across working directories
        candidate = corpus_dir() / path
        if candidate.exists():
            return candidate
    return path


#: How many built ``"llvm"`` inputs — lowered functions and instances —
#: :func:`_recall` keeps per process.
_BUILD_MEMO_SIZE = 64

#: ``key -> (source, fingerprint, extra)``, least recently used first.
_build_memo: Dict[Tuple[Any, ...], Tuple[Any, Any, Any]] = {}
_build_memo_lock = threading.Lock()


def _recall(
    key: Tuple[Any, ...], build: Callable[[], Tuple[Any, Any]]
) -> Tuple[Any, Any, Any]:
    """``(source, fingerprint, extra)`` for ``key``, from the memo when
    it holds the key, else built by ``build()``.

    A hit checks the stored source against the fingerprint taken at
    build time (:func:`_unchanged`); if it no longer matches, some
    caller mutated the shared source, so the entry — and the facts
    ``extra`` derived from it — is dropped and rebuilt.  ``build()``
    returns ``(source, extra)``, which is fingerprinted and stored,
    evicting the least recently used entry beyond
    :data:`_BUILD_MEMO_SIZE`.  A ``build()`` that raises stores nothing.
    """
    with _build_memo_lock:
        entry = _build_memo.get(key)
    if entry is not None and _unchanged(entry[0], entry[1]):
        with _build_memo_lock:
            _build_memo[key] = _build_memo.pop(key, entry)
        return entry
    source, extra = build()
    entry = (source, _fingerprint(source), extra)
    with _build_memo_lock:
        _build_memo.pop(key, None)
        _build_memo[key] = entry
        while len(_build_memo) > _BUILD_MEMO_SIZE:
            del _build_memo[next(iter(_build_memo))]
    return entry


def _llvm_source(params: Mapping[str, Any]) -> Tuple[Any, Tuple[Any, ...]]:
    """The ``.ll`` file an ``"llvm"`` spec names and its memo key:
    ``(path, content, function, sha256)``.  The content is read on every
    call, so an edited file misses."""
    path = _corpus_path(params)
    with open(path, "rb") as stream:
        data = stream.read()
    return path, (str(path), data, params.get("function"),
                  params.get("sha256"))


def _llvm_function(path: Any, key: Tuple[Any, ...]) -> Tuple[Any, Any, Any]:
    """``(function, fingerprint, facts)``: the lowered function with
    loop-depth block frequencies set, memoised with its
    :class:`~repro.intervals.linear_scan.CodeFacts`."""
    from ..frontend.corpus import _function_from_bytes
    from ..intervals.linear_scan import CodeFacts
    from ..ir.interference import set_frequencies_from_loops

    def build() -> Tuple[Any, Any]:
        func = _function_from_bytes(path, key[1], function=key[2],
                                    sha256=key[3])
        set_frequencies_from_loops(func)
        return func, CodeFacts(func)

    return _recall(("function",) + key, build)


def _llvm_instance(
    params: Mapping[str, Any], k: int
) -> Tuple[ChallengeInstance, Any]:
    """``(instance, fingerprint)``, memoised and built from the memoised
    function, as :func:`repro.frontend.corpus.instance_from_path`
    builds it."""
    from pathlib import Path

    from ..ir.interference import chaitin_interference

    path, key = _llvm_source(params)

    def build() -> Tuple[ChallengeInstance, None]:
        func, _, facts = _llvm_function(path, key)
        graph = chaitin_interference(func, weighted=True,
                                     liveness=facts.liveness)
        name = f"{Path(path).stem}:{func.name}"
        return ChallengeInstance(name=name, k=k if k > 0 else facts.maxlive,
                                 graph=graph), None

    instance, fingerprint, _ = _recall(("instance", k) + key, build)
    return instance, fingerprint


def _generate_instance(spec: TaskSpec) -> Tuple[ChallengeInstance, Any]:
    """``(instance, fingerprint)`` of a coalescing task's input.

    ``"llvm"`` instances come from the per-process build memo
    (:func:`_recall`), shared between tasks and so read-only, with the
    stored fingerprint its hit check just matched; every other
    generator builds a fresh instance and returns ``None`` for the
    fingerprint.
    """
    params = spec.params_dict()
    if spec.generator == "pressure":
        return pressure_instance(
            spec.k,
            int(params.get("rounds", 9)),
            margin=int(params.get("margin", 0)),
            copy_fraction=float(params.get("copy_fraction", 0.8)),
            rng=random.Random(spec.seed),
            name=f"pressure-s{spec.seed}",
        ), None
    if spec.generator == "program":
        return program_instance(
            spec.seed,
            spec.k,
            num_vars=int(params.get("num_vars", 12)),
            name=f"program-s{spec.seed}",
        ), None
    if spec.generator == "llvm":
        return _llvm_instance(params, spec.k)
    fn = _resolve_dotted(spec.generator)
    instance = fn(seed=spec.seed, k=spec.k, **params)
    if not isinstance(instance, ChallengeInstance):
        raise TypeError(
            f"{spec.generator} returned {type(instance).__name__}, "
            "expected ChallengeInstance"
        )
    return instance, None


def _load_task_function(spec: TaskSpec) -> Tuple[Any, int, Any, Any]:
    """Resolve the lowered function behind an allocation task.

    Allocation strategies need real code, so only the ``"llvm"``
    generator is accepted.  Returns ``(function, k, fingerprint,
    facts)`` with loop-depth block frequencies set and ``k`` defaulted
    to the function's Maxlive when the spec says ``k <= 0`` — the same
    convention as :func:`repro.frontend.corpus.function_instance`.  The
    function and its :class:`~repro.intervals.linear_scan.CodeFacts`
    come from the per-process build memo (:func:`_recall`), shared
    between tasks and so read-only; ``fingerprint`` is the stored one
    its hit check just matched.
    """
    if spec.generator != "llvm":
        raise ValueError(
            f"allocation strategy {spec.strategy!r} requires the "
            f"'llvm' generator (got {spec.generator!r}): graph "
            "generators carry no code to allocate"
        )
    func, fingerprint, facts = _llvm_function(
        *_llvm_source(spec.params_dict()))
    return func, spec.k if spec.k > 0 else facts.maxlive, fingerprint, facts


def _allocation_payload(result: Any) -> Dict[str, Any]:
    """The semantic payload of an allocation task (hash-covered).

    Everything here is deterministic given the spec; the verifier
    re-derives it from the allocation it certifies and cross-checks
    field by field (``ENG001`` on any mismatch).  The per-round spill
    sets stay out, so they never move ``result_hash``.
    """
    return {
        "function": result.function.name,
        "k": result.k,
        "variant": result.interval_variant,
        "assignment": sorted(
            [str(v), r] for v, r in result.assignment.items()
        ),
        "spilled": sorted(str(v) for v in result.spilled),
        "rounds": result.rounds,
        "intervals": result.num_intervals,
        "max_overlap": result.max_overlap,
        "coalesced_moves": result.coalesced_moves,
        "residual_moves": result.residual_moves,
    }


def _coalesce_payload(
    instance: ChallengeInstance, result: CoalescingResult
) -> Dict[str, Any]:
    return {
        "instance": instance.name,
        "vertices": len(instance.graph),
        "edges": instance.graph.num_edges(),
        "affinities": instance.graph.num_affinities(),
        "coalesced": result.num_coalesced,
        "coalesced_weight": result.coalesced_weight,
        "residual_weight": result.residual_weight,
        "coalesced_pairs": sorted(
            [str(u), str(v)] for u, v, _ in result.coalesced
        ),
    }


def _fingerprint(source: Any) -> Any:
    if isinstance(source, ChallengeInstance):
        return source.name, source.k, source.graph.fingerprint()
    return source.fingerprint()


def _unchanged(source: Any, fingerprint: Any) -> bool:
    """``_fingerprint(source) == fingerprint``; a graph is compared
    with the stored snapshot in place
    (:meth:`~repro.graphs.graph.Graph.matches`), not re-snapshotted."""
    if isinstance(source, ChallengeInstance):
        name, k, graph = fingerprint
        return (source.name == name and source.k == k
                and source.graph.matches(graph))
    return source.fingerprint() == fingerprint


@dataclass(frozen=True)
class Built:
    """What :func:`run_task` built for one task, handed to the verifier.

    ``source`` is the :class:`ChallengeInstance` a coalescing strategy
    ran on, or the input :class:`~repro.ir.cfg.Function` an allocator
    ran on; ``result`` is the allocator's
    :class:`~repro.intervals.linear_scan.LinearScanResult` (``None``
    for coalescing), and ``facts`` the input function's
    :class:`~repro.intervals.linear_scan.CodeFacts` from the build memo
    (``None`` otherwise).  ``fingerprint`` is the source's fingerprint
    taken before the strategy ran: :meth:`intact` checks the source
    against it, so the verifier certifies against the input the
    strategy saw, and reads ``facts``, only if the strategy left it
    unchanged.
    """

    source: Any
    fingerprint: Any
    result: Any = None
    facts: Any = None

    @classmethod
    def before(
        cls, source: Any, fingerprint: Any = None, facts: Any = None
    ) -> "Built":
        """Fingerprint ``source`` now, before the strategy runs —
        unless ``fingerprint`` is one just matched (the build memo's)."""
        if fingerprint is None:
            fingerprint = _fingerprint(source)
        return cls(source, fingerprint, facts=facts)

    def intact(self) -> bool:
        """True iff the source still has its pre-strategy fingerprint."""
        return _unchanged(self.source, self.fingerprint)


def _result_hash(payload: Any) -> str:
    canonical = json.dumps(payload, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(canonical.encode()).hexdigest()[:16]


def run_task(
    spec: TaskSpec,
    verify: bool = False,
    deadline: Optional[float] = None,
) -> Dict[str, Any]:
    """Execute one task in the current process; return its record.

    Deterministic outcomes — success and :exc:`BudgetExceeded` — are
    turned into records here (statuses ``ok`` / ``budget_exceeded``).
    Any other exception propagates to the caller: the pool wraps it
    into an ``error`` record, and hangs/crashes are detected from
    outside the process (statuses ``timeout`` / ``crashed``).

    ``deadline`` is remaining wall-clock seconds granted by the caller
    (:meth:`repro.budget.Budget.from_deadline`); it tightens — never
    loosens — the spec's own ``max_seconds``, so a serving layer can
    bound a request's time without changing the task's identity
    (deadlines are *execution* parameters and never enter
    :func:`task_hash`).

    The record's ``result_hash`` covers only the semantic payload
    (never timings), so identical specs hash identically no matter how
    many workers ran the campaign.

    With ``verify=True`` an ``ok`` record is certified through
    :func:`repro.analysis.engine_check.verify_record` and the
    verification dict is attached under ``record["verification"]``
    (metadata only — it never enters ``result_hash``).  The verifier
    gets what this run built (:class:`Built`: the instance, or the
    input function and the allocation) instead of rebuilding it from
    the spec; the input is fingerprinted before the strategy runs, so
    a strategy that mutates it fails verification with ``ENG002``.

    An ``"llvm"`` spec's lowered function and instance come from a
    per-process memo keyed by the file's path and content, the
    function, the ``sha256`` pin and (instances) ``k``: each corpus
    function is lowered, and its interference graph built, once per
    process.  Beside each function the memo keeps its
    :class:`~repro.intervals.linear_scan.CodeFacts`, which the
    allocator's first round and the verifier read; each graph keeps its
    dense twin and the twin's peel per ``k``.  Every hit checks the
    source against its stored fingerprint and rebuilds on a mismatch,
    so an input a strategy mutated, and the facts derived from it,
    never reach a later task; the stored fingerprint is the one
    ``Built`` starts from.
    """
    key = task_hash(spec)
    tracer = Tracer()
    tracer.meta.update(
        task=key, generator=spec.generator, strategy=spec.strategy,
        seed=spec.seed, k=spec.k,
    )
    t0 = time.perf_counter()
    record: Dict[str, Any] = {
        "schema": 1,
        "engine": ENGINE_VERSION,
        "key": key,
        "task": spec.as_dict(),
        "attempts": 1,
        "error": None,
    }
    built: Optional[Built] = None
    try:
        budget = None
        max_seconds = spec.max_seconds
        if deadline is not None:
            if deadline <= 0:
                # spent while queued: a deterministic budget outcome,
                # not an error — the serving layer maps it to a timeout
                raise BudgetExceeded("deadline", 0, 0.0)
            max_seconds = (
                deadline if max_seconds is None
                else min(max_seconds, deadline)
            )
        if max_seconds is not None:
            budget = Budget.from_deadline(max_seconds,
                                          max_steps=spec.max_steps)
        elif spec.max_steps is not None:
            budget = Budget(max_steps=spec.max_steps)
        if spec.generator == "sleep":
            time.sleep(float(spec.params_dict().get("seconds", 60.0)))
            payload: Any = {"slept": float(spec.params_dict().get("seconds", 60.0))}
        elif spec.generator == "crash":
            import os

            os._exit(int(spec.params_dict().get("exitcode", 1)))
        elif spec.strategy == "call":
            fn = _resolve_dotted(spec.generator)
            payload = fn(spec.seed, spec.k, spec.params_dict(), tracer, budget)
        elif spec.strategy in ALLOCATION_STRATEGIES:
            from ..intervals.linear_scan import linear_scan_allocate

            func, k, fingerprint, facts = _load_task_function(spec)
            variant = (
                "classic" if spec.strategy == "linear-scan"
                else "second-chance"
            )
            if verify:
                built = Built.before(func, fingerprint, facts=facts)
            with tracer.span("engine-task"):
                alloc = linear_scan_allocate(
                    func, k, variant=variant, tracer=tracer, facts=facts
                )
            if built is not None:
                built = replace(built, result=alloc)
            payload = _allocation_payload(alloc)
        else:
            instance, fingerprint = _generate_instance(spec)
            if verify:
                built = Built.before(instance, fingerprint)
            with tracer.span("engine-task"):
                result = execute_strategy(
                    instance.graph, spec.k or instance.k, spec.strategy,
                    tracer=tracer, budget=budget,
                )
            payload = _coalesce_payload(instance, result)
    except BudgetExceeded as exc:
        record.update(
            status="budget_exceeded",
            payload={"reason": exc.reason, "steps": exc.steps},
            result_hash=None,
            error=str(exc),
            seconds=time.perf_counter() - t0,
        )
        if verify:
            from ..analysis.engine_check import verify_record

            record["verification"] = verify_record(spec, record, tracer=tracer)
        record["trace"] = tracer.report()
        return record
    record.update(
        status="ok",
        payload=payload,
        result_hash=_result_hash(payload),
        seconds=time.perf_counter() - t0,
    )
    if verify:
        from ..analysis.engine_check import verify_record

        record["verification"] = verify_record(
            spec, record, tracer=tracer, built=built
        )
    record["trace"] = tracer.report()
    return record
