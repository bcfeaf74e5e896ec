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

:data:`STRATEGY_TABLE` names every strategy: how it runs and what it
promises.  :func:`build` turns a spec into the input its strategy runs
on (a :class:`Built`), and :func:`run_task` executes one spec in the
current process on that input and returns the *task record* (see
``docs/ENGINE.md`` for the schema).  Timeouts
that require killing a process live in :mod:`repro.engine.pool`; this
module only handles the cooperative :class:`repro.budget.Budget`.
"""

from __future__ import annotations

import hashlib
import importlib
import json
import os
import random
import threading
import time
from dataclasses import dataclass
from functools import partial
from typing import Any, Callable, Dict, List, Mapping, Optional, Tuple

from ..allocator.irc import irc_coalescing_result
from ..budget import Budget, BudgetExceeded
from ..challenge.format import ChallengeInstance
from ..challenge.generator import pressure_instance, program_instance
from ..coalescing import conservative_coalesce, optimistic_coalesce
from ..coalescing.aggressive import aggressive_coalesce
from ..coalescing.base import CoalescingResult
from ..coalescing.biased import biased_coloring_result
from ..coalescing.chordal_strategy import chordal_incremental_coalesce
from ..coalescing.exact import optimal_coalescing
from ..graphs.dense import DENSE_TESTS
from ..intervals import linear_scan
from ..intervals.coalesce import interval_coalesce
from ..obs import NULL_TRACER, Tracer

__all__ = [
    "ENGINE_VERSION",
    "TaskSpec",
    "task_hash",
    "expand_grid",
    "execute_strategy",
    "run_task",
    "build",
    "Built",
    "Strategy",
    "STRATEGY_TABLE",
    "GREEDY",
    "VALID",
    "INSTANCE_GENERATORS",
    "FAULT_GENERATORS",
    "STRATEGIES",
    "ALLOCATION_STRATEGIES",
    "COALESCING_STRATEGIES",
]

#: Code-version tag mixed into every task hash.  Bump it whenever task
#: execution semantics change, so stale cached results are never reused.
ENGINE_VERSION = "4"

#: Built-in instance generators (see :func:`build`).
INSTANCE_GENERATORS = ("pressure", "program", "llvm")

#: Fault-injection generators for exercising the pool's containment.
FAULT_GENERATORS = ("sleep", "crash")

#: The quotient contracts of a coalescing strategy (§2.2): ``GREEDY``,
#: a greedy-k-colorable quotient (the conservative target, Section 4,
#: re-certified by ``COAL004``), or ``VALID``, only a valid coalescing
#: (aggressive coalescing, Section 3, and the k-colorable exact target).
GREEDY = "greedy-k-colorable"
VALID = "valid"


@dataclass(frozen=True)
class Strategy:
    """One row of :data:`STRATEGY_TABLE`.

    ``run(subject, k, tracer=, budget=, facts=)`` runs the strategy on
    :attr:`Built.subject`: a graph, giving a ``CoalescingResult``
    labelled with the table name, or for an allocator (``variant``, its
    :func:`~repro.intervals.linear_scan.linear_scan_allocate` variant)
    the lowered function, giving a ``LinearScanResult``.  It is ``None``
    for ``"call"``, whose dotted generator computes the payload.
    ``contract`` is :data:`GREEDY` or :data:`VALID` for a coalescing
    strategy and ``None`` otherwise; ``heavy`` marks exponential or
    opaque work, admitted under serving's heavy class.
    """

    run: Optional[Callable[..., Any]]
    contract: Optional[str] = None
    variant: Optional[str] = None
    heavy: bool = False


def _coalescing(fn: Callable[..., Any], contract: str) -> Strategy:
    """A polynomial heuristic, called as ``fn(graph, k, tracer=)``."""
    return Strategy(
        lambda graph, k, tracer=NULL_TRACER, **_: fn(graph, k, tracer=tracer),
        contract)


def _ignoring_k(fn: Callable[..., Any]) -> Callable[..., Any]:
    return lambda graph, k, tracer: fn(graph, tracer=tracer)


def _exact(target: str, contract: str) -> Strategy:
    return Strategy(
        lambda graph, k, budget=None, **_: optimal_coalescing(
            graph, k, target=target, budget=budget),
        contract, heavy=True)


def _allocator(variant: str) -> Strategy:
    return Strategy(
        lambda func, k, tracer=NULL_TRACER, facts=None, **_:
        linear_scan.linear_scan_allocate(func, k, variant=variant,
                                         tracer=tracer, facts=facts),
        variant=variant)


#: Every strategy the engine runs, by name, and the one place that says
#: how each runs and what it promises: the name lists below, the CLI's
#: choices, serving's admission classes and the verifier's contracts
#: are read from it.
STRATEGY_TABLE: Dict[str, Strategy] = {
    **{test: _coalescing(partial(conservative_coalesce, test=test), GREEDY)
       for test in sorted(DENSE_TESTS)},
    "aggressive": _coalescing(_ignoring_k(aggressive_coalesce), VALID),
    "optimistic": _coalescing(optimistic_coalesce, GREEDY),
    "biased": _coalescing(biased_coloring_result, GREEDY),
    "chordal": _coalescing(chordal_incremental_coalesce, GREEDY),
    "irc": _coalescing(irc_coalescing_result, GREEDY),
    "exact": _exact("greedy", GREEDY),
    "exact-kcolorable": _exact("kcolorable", VALID),
    "interval": _coalescing(_ignoring_k(interval_coalesce), VALID),
    "linear-scan": _allocator("classic"),
    "second-chance": _allocator("second-chance"),
    "call": Strategy(None, heavy=True),
}

STRATEGIES = tuple(STRATEGY_TABLE)

#: Allocators: they need the ``"llvm"`` generator's code and produce an
#: allocation payload (:func:`_allocation_payload`).
ALLOCATION_STRATEGIES = tuple(
    name for name, entry in STRATEGY_TABLE.items() if entry.variant)

COALESCING_STRATEGIES = tuple(
    name for name, entry in STRATEGY_TABLE.items() if entry.contract)


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
        if not isinstance(self.k, int) or isinstance(self.k, bool) \
                or self.k < 0:
            raise ValueError(
                f"TaskSpec k must be an int >= 0 (0: the instance's k, "
                f"or Maxlive for llvm), got {self.k!r}"
            )
        if self.strategy not in STRATEGY_TABLE:
            raise ValueError(
                f"unknown strategy {self.strategy!r} (one of {STRATEGIES})"
            )
        if STRATEGY_TABLE[self.strategy].variant is not None \
                and self.generator != "llvm":
            raise ValueError(
                f"allocation strategy {self.strategy!r} requires the "
                f"'llvm' generator (got {self.generator!r}): graph "
                "generators carry no code to allocate"
            )
        steps = self.max_steps
        if steps is not None and (
            not isinstance(steps, int) or isinstance(steps, bool)
            or steps < 1
        ):
            raise ValueError(
                f"TaskSpec max_steps must be an int >= 1 or null, "
                f"got {steps!r}"
            )
        seconds = self.max_seconds
        if seconds is not None and (
            not isinstance(seconds, (int, float))
            or isinstance(seconds, bool) or not seconds > 0
        ):
            raise ValueError(
                f"TaskSpec max_seconds must be a number > 0 or null, "
                f"got {seconds!r}"
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
        unknown = set(data) - set(_SPEC_FIELDS)
        if unknown:
            raise ValueError(f"unknown TaskSpec fields: {sorted(unknown)}")
        if "seed" not in data:
            raise ValueError("TaskSpec requires an explicit seed")
        return cls(params=tuple(sorted(params.items())), **data)


#: ``json.dumps(obj, sort_keys=True, separators=(",", ":"))``, made once.
_canonical_json = json.JSONEncoder(sort_keys=True,
                                   separators=(",", ":")).encode


def _digest(obj: Any) -> str:
    """16 hex chars of SHA-256 over the canonical JSON form of ``obj``."""
    return hashlib.sha256(_canonical_json(obj).encode()).hexdigest()[:16]


def task_hash(spec: TaskSpec) -> str:
    """Stable content address of a task: spec + engine code version.

    16 hex chars of SHA-256 over the canonical JSON form.  Changing any
    spec field — or bumping :data:`ENGINE_VERSION` — changes the hash,
    so the result cache can never serve a stale or mismatched record.
    """
    return _digest({"engine": ENGINE_VERSION, **spec.as_dict()})


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
    """Run one named coalescing strategy of :data:`STRATEGY_TABLE` on
    ``graph`` (the CLI shares this dispatch).

    ``budget`` only reaches the strategies that support cooperative
    budgets (the exact solvers); the heuristics are polynomial and rely
    on the pool's wall-clock timeout instead.
    """
    if strategy not in COALESCING_STRATEGIES:
        raise ValueError(f"unknown coalescing strategy {strategy!r} "
                         f"(one of {COALESCING_STRATEGIES})")
    return STRATEGY_TABLE[strategy].run(graph, k, tracer=tracer,
                                        budget=budget)


def _resolve_dotted(path: str) -> Callable:
    module_name, _, attr = path.partition(":")
    if not module_name or not attr:
        raise ValueError(f"dotted generator must be 'module:function', "
                         f"got {path!r}")
    module = importlib.import_module(module_name)
    return getattr(module, attr)


#: ``(REPRO_LLVM_CORPUS, name) -> corpus_dir() / name`` for each bare
#: name found to be a corpus file (the variable picks
#: :func:`~repro.frontend.corpus.corpus_dir`).  Only finds are kept, so
#: a file added to the corpus later resolves on its first request.
_corpus_names: Dict[Tuple[Optional[str], str], Any] = {}


def _corpus_file(path: Any) -> Any:
    """``corpus_dir() / path`` if ``path`` is the bare name of a file
    of the corpus, else ``None``.

    A find is remembered (:data:`_corpus_names`), so a name costs one
    ``stat`` per process: :func:`run_task` and the service's admission
    check share the memo.  A remembered file that was deleted since
    still resolves here, and opening it fails; a bare name never falls
    back to the working directory.
    """
    if not isinstance(path, str):
        return None
    key = (os.environ.get("REPRO_LLVM_CORPUS"), path)
    found = _corpus_names.get(key)
    if found is None:
        # imported here: the service's admission check calls this, and
        # its process need not load the frontend (its pool workers parse)
        from ..frontend.corpus import corpus_dir

        if os.path.basename(path) != path:
            return None
        candidate = corpus_dir() / path
        if not candidate.is_file():
            return None
        found = _corpus_names[key] = candidate
    return found


def _corpus_path(params: Mapping[str, Any]) -> Any:
    """The ``.ll`` file an ``"llvm"`` spec names in ``params["path"]``.

    A bare name of a corpus file resolves in the corpus, whatever the
    working directory holds, so one spec (one :func:`task_hash`) reads
    the same file everywhere; any other path, ``./loops.ll`` included,
    is taken as given.
    """
    path = params.get("path")
    if path is None:
        raise ValueError("the llvm generator requires params['path']")
    return _corpus_file(path) or path


#: How many built ``"llvm"`` inputs — lowered functions and instances —
#: :func:`_recall` keeps per process.
_BUILD_MEMO_SIZE = 64


class _Entry:
    """One memoised input: ``source`` with the ``fingerprint`` taken
    when it was built and the facts ``extra`` derived from it.

    ``lent`` counts the lends :func:`run_task` has out; each comes back
    through :func:`_settle` with its comparison.  ``trusted`` holds
    until :func:`build` hands the source to an outside caller, who
    may keep it; from then on every hit compares.
    """

    __slots__ = ("key", "source", "fingerprint", "extra", "lent", "trusted")

    def __init__(self, key: Tuple[Any, ...], source: Any, extra: Any) -> None:
        self.key, self.source, self.extra = key, source, extra
        self.fingerprint = _fingerprint(source)
        self.lent = 0
        self.trusted = True


#: ``key -> entry``, least recently used first.
_build_memo: Dict[Tuple[Any, ...], _Entry] = {}
_build_memo_lock = threading.Lock()


def _take(entry: _Entry, lend: bool) -> None:
    """Hand ``entry`` out (lock held): a lend, or an outside caller."""
    _build_memo[entry.key] = _build_memo.pop(entry.key)
    if lend:
        entry.lent += 1
    else:
        entry.trusted = False


def _recall(
    key: Tuple[Any, ...], make: Callable[[], Tuple[Any, Any]], lend: bool
) -> _Entry:
    """The memo entry for ``key``, built by ``make()`` on a miss.

    A hit skips comparing the stored source with its fingerprint
    (:func:`_unchanged`) only while the entry is trusted and no lend is
    out: every lend since the last comparison came back intact through
    :func:`_settle`.  Otherwise it compares, and a mismatch means some
    caller mutated the shared source, so the entry — and the facts
    ``extra`` derived from it — is dropped and rebuilt.  ``make()``
    returns ``(source, extra)``, which is fingerprinted and stored,
    evicting the least recently used entry beyond
    :data:`_BUILD_MEMO_SIZE`.  A ``make()`` that raises stores nothing.

    ``lend=True`` is :func:`run_task`'s lend, to be settled; otherwise
    the source goes to an outside caller for good.
    """
    with _build_memo_lock:
        entry = _build_memo.get(key)
        if entry is not None and entry.trusted and not entry.lent:
            _take(entry, lend)
            return entry
    if entry is not None and _unchanged(entry.source, entry.fingerprint):
        with _build_memo_lock:
            if _build_memo.get(key) is entry:  # not evicted meanwhile
                _take(entry, lend)
                return entry
    source, extra = make()
    entry = _Entry(key, source, extra)
    with _build_memo_lock:
        _build_memo.pop(key, None)
        _build_memo[key] = entry
        _take(entry, lend)
        while len(_build_memo) > _BUILD_MEMO_SIZE:
            del _build_memo[next(iter(_build_memo))]
    return entry


def _settle(entry: Optional[_Entry], intact: bool) -> None:
    """Return a lend of ``entry`` (``None``: nothing was lent) with the
    comparison its borrower made; a failed one drops the entry."""
    if entry is None:
        return
    with _build_memo_lock:
        entry.lent -= 1
        if not intact and _build_memo.get(entry.key) is entry:
            del _build_memo[entry.key]


def _llvm_source(params: Mapping[str, Any]) -> Tuple[Any, Tuple[Any, ...]]:
    """The ``.ll`` file an ``"llvm"`` spec names and its memo key:
    ``(path, content, function, sha256)``.  The content is read on every
    call, so an edited file misses."""
    path = _corpus_path(params)
    with open(path, "rb", buffering=0) as stream:  # unbuffered: one read
        data = stream.readall()
    return path, (str(path), data, params.get("function"),
                  params.get("sha256"))


def _llvm_function(path: Any, key: Tuple[Any, ...], lend: bool) -> _Entry:
    """The memo entry of the lowered function with loop-depth block
    frequencies set; its ``extra`` is the function's
    :class:`~repro.intervals.linear_scan.CodeFacts`."""

    def make() -> Tuple[Any, Any]:
        from ..frontend.corpus import _function_from_bytes
        from ..intervals.linear_scan import CodeFacts
        from ..ir.interference import set_frequencies_from_loops

        func = _function_from_bytes(path, key[1], function=key[2],
                                    sha256=key[3])
        set_frequencies_from_loops(func)
        return func, CodeFacts(func)

    return _recall(("function",) + key, make, lend)


def _llvm_instance(
    params: Mapping[str, Any], k: int, lend: bool
) -> _Entry:
    """The memo entry of the instance, built from the memoised function
    as :func:`repro.frontend.corpus.instance_from_path` builds it."""
    path, key = _llvm_source(params)

    def make() -> Tuple[ChallengeInstance, None]:
        from pathlib import Path

        from ..ir.interference import chaitin_interference

        entry = _llvm_function(path, key, lend=True)
        func, facts = entry.source, entry.extra
        try:
            graph = chaitin_interference(func, weighted=True,
                                         liveness=facts.liveness)
        finally:
            _settle(entry, True)  # the interference build only reads it
        name = f"{Path(path).stem}:{func.name}"
        return ChallengeInstance(name=name, k=k if k > 0 else facts.maxlive,
                                 graph=graph), None

    return _recall(("instance", k) + key, make, lend)


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
    """What :func:`build` built for one spec: ``source``, the
    :class:`ChallengeInstance` or input :class:`~repro.ir.cfg.Function`
    the strategy runs on, at ``k`` registers (the spec's, or the
    instance's k / the function's Maxlive when it says 0), with its
    ``fingerprint`` from before any strategy ran (:meth:`intact`), the
    function's memoised ``facts``, and — once :func:`run_task` ran the
    strategy — its ``result`` and ``checked``, the comparison with the
    fingerprint it made after the strategy."""

    source: Any
    k: int
    fingerprint: Any
    facts: Any = None
    result: Any = None
    checked: Optional[bool] = None

    @property
    def subject(self) -> Any:
        """The instance's graph, or the function."""
        if isinstance(self.source, ChallengeInstance):
            return self.source.graph
        return self.source

    def intact(self) -> bool:
        """True iff the source still has its pre-strategy fingerprint:
        :attr:`checked` once :func:`run_task` compared, else compared
        now."""
        if self.checked is not None:
            return self.checked
        return _unchanged(self.source, self.fingerprint)


def build(spec: TaskSpec) -> Built:
    """The input of ``spec``'s strategy: the one path from a spec to
    what :func:`run_task` runs and the verifier certifies.

    An allocator needs real code, so only the ``"llvm"`` generator is
    accepted.  An ``"llvm"`` spec's lowered function (with loop-depth
    block frequencies set) and instance come from a per-process memo
    (:func:`_recall`) keyed by the file's path and content, the
    function, the ``sha256`` pin and (instances) ``k``, so each corpus
    function is lowered, and its interference graph built, once per
    process.  Beside each function the memo keeps its
    :class:`~repro.intervals.linear_scan.CodeFacts`, which the
    allocator's first round and the verifier read; each graph keeps its
    dense twin and the twin's peel per ``k``.  Memoised sources are
    shared and so read-only.  :func:`run_task` borrows its input and
    compares it with the fingerprint once, after the strategy; a hit
    skips the comparison while every such lend came back intact.  A
    source handed out here may be kept and changed by its caller at any
    time, so from then on every hit compares, and a mismatch rebuilds:
    an input someone mutated never reaches a later task.  Every other
    generator builds a fresh instance, fingerprinted here.
    """
    return _build(spec, lend=False)[0]


def _build(
    spec: TaskSpec, lend: bool, params: Optional[Mapping[str, Any]] = None
) -> Tuple[Built, Optional[_Entry]]:
    """:func:`build`, and the memo entry lent (``lend=True``) for
    :func:`_settle`, ``None`` when the input is not memoised.
    ``params`` is ``spec.params_dict()``, if the caller made it."""
    if params is None:
        params = spec.params_dict()
    if STRATEGY_TABLE[spec.strategy].variant is not None:
        entry = _llvm_function(*_llvm_source(params), lend=lend)
        built = Built(entry.source, spec.k or entry.extra.maxlive,
                      entry.fingerprint, entry.extra)
        return built, entry if lend else None
    if spec.generator == "llvm":
        entry = _llvm_instance(params, spec.k, lend)
        built = Built(entry.source, spec.k or entry.source.k,
                      entry.fingerprint)
        return built, entry if lend else None
    if spec.generator == "pressure":
        instance = pressure_instance(
            spec.k,
            int(params.get("rounds", 9)),
            margin=int(params.get("margin", 0)),
            copy_fraction=float(params.get("copy_fraction", 0.8)),
            rng=random.Random(spec.seed),
            name=f"pressure-s{spec.seed}",
        )
    elif spec.generator == "program":
        instance = program_instance(
            spec.seed,
            spec.k,
            num_vars=int(params.get("num_vars", 12)),
            name=f"program-s{spec.seed}",
        )
    else:
        instance = _resolve_dotted(spec.generator)(seed=spec.seed, k=spec.k,
                                                   **params)
        if not isinstance(instance, ChallengeInstance):
            raise TypeError(
                f"{spec.generator} returned {type(instance).__name__}, "
                "expected ChallengeInstance"
            )
    return Built(instance, spec.k or instance.k, _fingerprint(instance)), None


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

    The strategy's input comes from :func:`build`, and the strategy is
    its :data:`STRATEGY_TABLE` row's ``run``.  With ``verify=True`` the
    record is certified through
    :func:`repro.analysis.engine_check.verify_record` and the
    verification dict is attached under ``record["verification"]``
    (metadata only — it never enters ``result_hash``).  The verifier is
    handed this run's :class:`Built`, the strategy's result included.
    Its fingerprint predates the strategy, and the one comparison with
    it, made after the strategy whether or not the task is verified,
    rides along (:attr:`Built.checked`): a strategy that mutates its
    input fails verification with ``ENG002``, and the memoised input is
    rebuilt for the next task.
    """
    task = spec.as_dict()
    params = task["params"]
    key = _digest({"engine": ENGINE_VERSION, **task})
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
        "task": task,
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
        entry = STRATEGY_TABLE[spec.strategy]
        if spec.generator == "sleep":
            seconds = float(params.get("seconds", 60.0))
            time.sleep(seconds)
            payload: Any = {"slept": seconds}
        elif spec.generator == "crash":
            os._exit(int(params.get("exitcode", 1)))
        elif entry.run is None:
            fn = _resolve_dotted(spec.generator)
            payload = fn(spec.seed, spec.k, dict(params), tracer, budget)
        else:
            built, lent = _build(spec, lend=True, params=params)
            try:
                with tracer.span("engine-task"):
                    result = entry.run(built.subject, built.k,
                                       tracer=tracer, budget=budget,
                                       facts=built.facts)
            finally:
                checked = built.intact()
                _settle(lent, checked)
            built = Built(built.source, built.k, built.fingerprint,
                          built.facts, result, checked)
            if entry.variant is not None:
                payload = _allocation_payload(result)
            else:
                payload = _coalesce_payload(built.source, result)
    except BudgetExceeded as exc:
        record.update(
            status="budget_exceeded",
            payload={"reason": exc.reason, "steps": exc.steps},
            result_hash=None,
            error=str(exc),
        )
    else:
        record.update(status="ok", payload=payload,
                      result_hash=_digest(payload))
    record["seconds"] = time.perf_counter() - t0
    if verify:
        from ..analysis.engine_check import verify_record

        record["verification"] = verify_record(
            spec, record, tracer=tracer, built=built
        )
    record["trace"] = tracer.report()
    return record
