"""The pinned kernel suite behind ``repro bench snapshot``.

Every case runs one dense kernel (the :mod:`repro.graphs.dense` bitset
kernels and the mask-based liveness/interval builders) on a fixed-seed
instance, so a snapshot records two things per row:

* **wall_ms** — the minimum wall time over ``repeats`` untraced runs
  (minimum, because the interesting quantity is the cost of the work,
  not of the scheduler noise);
* **counters** — the :data:`~repro.obs.names.KERNEL_WORK_COUNTERS`
  from one traced run.  Counting follows the size-of-data-consumed
  convention of :mod:`repro.obs.names`, so the values are *exact*:
  regenerating a snapshot on any machine reproduces them bit-for-bit,
  and the regression gate can demand equality instead of a tolerance.

Rows carry ``"backend": "dense"``.  Snapshots committed before the
dict-of-set references moved to ``tests/reference/`` also hold
``"dict"`` rows; :func:`compare_snapshots` skips those, since the code
they measured no longer ships.  The claim that each dense kernel does
strictly less work than its reference is a test
(``tests/test_dense.py``), not part of a snapshot run.

Schema (``SCHEMA_VERSION = 1``)::

    {"schema_version": 1, "rev": "abc1234", "python": "3.11",
     "repeats": 5,
     "rows": [{"kernel": "mcs", "instance": "er-192",
               "backend": "dense", "wall_ms": 1.9,
               "counters": {"kernel.edges_scanned": 2726,
                            "kernel.words_merged": 1152},
               "work": 3878}, ...]}

See ``docs/PERFORMANCE.md`` for how to read and regenerate these
artifacts; committed ``BENCH_<rev>.json`` files at the repo root are
the recorded trajectory.
"""

from __future__ import annotations

import json
import platform
import random
import subprocess
import time
from typing import Callable, Dict, List, Optional, Tuple

from ..challenge.generator import pressure_instance
from ..coalescing.conservative import conservative_coalesce
from ..graphs import dense as _dense
from ..graphs.generators import random_chordal_graph, random_graph
from ..ir.generators import GeneratorConfig, random_function
from ..ir.interference import chaitin_interference
from ..obs import KERNEL_WORK_COUNTERS, NULL_TRACER, Tracer

SCHEMA_VERSION = 1

#: The ``backend`` field of every row this module writes.
BACKEND = "dense"

#: The fields :func:`load_snapshot` requires in every row.
ROW_FIELDS = ("kernel", "instance", "backend", "wall_ms", "counters")

#: Default wall-time regression band for :func:`compare_snapshots`:
#: a candidate row may be at most (1 + tolerance) × the baseline.
TOLERANCE_DEFAULT = 0.25

#: A runner executes one kernel invocation under the given tracer.
Runner = Callable[..., object]


def _git_rev() -> str:
    """The short HEAD revision, or ``"local"`` outside a checkout."""
    try:
        out = subprocess.run(
            ["git", "rev-parse", "--short", "HEAD"],
            capture_output=True, text=True, timeout=10,
        )
    except (OSError, subprocess.SubprocessError):
        return "local"
    rev = out.stdout.strip()
    return rev if out.returncode == 0 and rev else "local"


def pinned_suite() -> List[Dict[str, object]]:
    """The fixed-seed benchmark cases.

    Returns a list of ``{"kernel", "instance", "args", "run"}`` dicts:
    ``run`` is a callable taking ``tracer`` that executes the dense
    kernel, and ``args`` is the case's input as the positional
    arguments of the kernel's public entry point, so tests can replay
    the same instance through a reference implementation.  Instances
    are chosen dense enough that the bitset kernels win on *work*, not
    only on constant factors: for a graph kernel a dict-of-set scan
    touches ~2·E adjacency elements while the dense kernel scans ~E
    elements plus O(words·V) word operations, so E must comfortably
    exceed words·V (see docs/PERFORMANCE.md).
    """
    cases: List[Dict[str, object]] = []

    def case(kernel: str, instance: str, args: tuple, run: Runner) -> None:
        cases.append({
            "kernel": kernel, "instance": instance, "args": args, "run": run,
        })

    # --- interference-graph build (liveness + Chaitin walk) ----------
    build_cfg = GeneratorConfig(
        max_depth=5, max_stmts=14, num_vars=48, reuse_bias=0.9
    )
    for seed in (6, 10):
        func = random_function(seed=seed, config=build_cfg)
        case("build", f"fn-{seed}", (func,),
             lambda t, f=func: chaitin_interference(f, tracer=t))

    # --- interference build on a real frontend-lowered function -----
    # interp.ll is a dispatch loop with many small blocks: a set-based
    # liveness fixpoint pays element by element, while 41 variables fit
    # one bitset word.  (A straight-line block would NOT qualify here —
    # with trivial liveness the work is edge-dominated and the dense
    # word merges are pure overhead.)
    from ..frontend.corpus import corpus_dir, load_functions

    with open(corpus_dir() / "interp.ll") as stream:
        ll_func = load_functions(stream.read())[0]
    case("build", "ll-interp", (ll_func,),
         lambda t, f=ll_func: chaitin_interference(f, tracer=t))

    # --- MCS and greedy colouring on synthetic graphs ----------------
    # The dense runners take the graph already interned, so the rows
    # time the kernels alone.
    graphs = [
        ("er-192", random_graph(192, 0.15, seed=11)),
        ("chordal-160", random_chordal_graph(160, 24, seed=7)),
    ]
    for name, graph in graphs:
        case("mcs", name, (graph,),
             lambda t, d=graph.dense(): _dense.mcs_order(d, tracer=t))
        case("color", name, (graph,),
             lambda t, d=graph.dense(): _dense.greedy_coloring(d, tracer=t))

    # --- live-interval construction (liveness + point walk) ----------
    from ..intervals.model import build_intervals

    fn6 = random_function(seed=6, config=build_cfg)
    for label, ifunc in (("fn-6", fn6), ("ll-interp", ll_func)):
        case("intervals", label, (ifunc,),
             lambda t, f=ifunc: build_intervals(f, tracer=t))

    # --- linear scan end to end (build + scan) -----------------------
    # Second-chance at k = Maxlive: a pure scan (no spill rounds), so
    # the row measures interval construction under the allocator's
    # real access pattern.
    from ..intervals.linear_scan import linear_scan_allocate
    from ..ir.liveness import maxlive as _maxlive

    with open(corpus_dir() / "interp.ll") as stream:
        scan_func = load_functions(stream.read())[0]
    scan_k = _maxlive(scan_func)
    case("linscan", "ll-interp", (scan_func, scan_k),
         lambda t, f=scan_func, kk=scan_k: linear_scan_allocate(
             f, kk, variant="second-chance", tracer=t
         ))

    # --- conservative coalescing (briggs_george worklist) ------------
    for k, rounds, seed in ((12, 20, 5), (16, 16, 13)):
        inst = pressure_instance(
            k, rounds, rng=random.Random(seed), name=f"pressure-k{k}"
        )
        case("coalesce", f"pressure-k{k}", (inst.graph, k),
             lambda t, g=inst.graph, kk=k: conservative_coalesce(
                 g, kk, test="briggs_george", check_input=False, tracer=t
             ))
    return cases


def run_snapshot(
    repeats: int = 5, rev: Optional[str] = None
) -> Dict[str, object]:
    """Execute the pinned suite and return the snapshot document.

    One traced run per row collects the exact work counters; ``repeats``
    untraced runs collect the minimum wall time.
    """
    if repeats < 1:
        raise ValueError(f"repeats must be >= 1, got {repeats}")
    rows: List[Dict[str, object]] = []
    for case in pinned_suite():
        run: Runner = case["run"]  # type: ignore[assignment]
        tracer = Tracer()
        run(tracer)
        counters = {
            name: int(tracer.counters.get(name, 0))
            for name in KERNEL_WORK_COUNTERS
        }
        best = float("inf")
        for _ in range(repeats):
            t0 = time.perf_counter()
            run(NULL_TRACER)
            best = min(best, time.perf_counter() - t0)
        rows.append({
            "kernel": case["kernel"],
            "instance": case["instance"],
            "backend": BACKEND,
            "wall_ms": round(best * 1e3, 4),
            "counters": counters,
            "work": sum(counters.values()),
        })
    return {
        "schema_version": SCHEMA_VERSION,
        "rev": rev or _git_rev(),
        "python": platform.python_version(),
        "repeats": repeats,
        "rows": rows,
    }


def compare_snapshots(
    baseline: Dict[str, object],
    candidate: Dict[str, object],
    tolerance: float = TOLERANCE_DEFAULT,
) -> List[str]:
    """The regression gate: candidate vs a committed baseline.

    A candidate row regresses when any work counter *increases* (exact
    comparison — the counters are deterministic) or its wall time
    exceeds ``(1 + tolerance)`` times the baseline.  Rows present only
    in the candidate are fine (new kernels extend the trajectory); rows
    that disappeared are reported.  Baseline rows of any backend other
    than :data:`BACKEND` are skipped: they measured the dict-of-set
    references, which now live in ``tests/reference/``.  Returns the
    list of problems (empty = gate passes).
    """
    problems: List[str] = []
    if baseline.get("schema_version") != candidate.get("schema_version"):
        problems.append(
            f"schema mismatch: baseline "
            f"{baseline.get('schema_version')!r} vs candidate "
            f"{candidate.get('schema_version')!r}"
        )
        return problems

    def rows_by_key(doc: Dict[str, object]) -> Dict[Tuple[str, str, str], Dict]:
        out: Dict[Tuple[str, str, str], Dict] = {}
        for row in doc.get("rows", []):  # type: ignore[union-attr]
            out[(row["kernel"], row["instance"], row["backend"])] = row
        return out

    base_rows = rows_by_key(baseline)
    cand_rows = rows_by_key(candidate)
    for key, base in sorted(base_rows.items()):
        if key[2] != BACKEND:
            continue
        label = "/".join(key)
        cand = cand_rows.get(key)
        if cand is None:
            problems.append(f"{label}: row missing from candidate")
            continue
        for name, base_value in base["counters"].items():
            cand_value = cand["counters"].get(name, 0)
            if cand_value > base_value:
                problems.append(
                    f"{label}: {name} increased {base_value} -> {cand_value}"
                )
        limit = base["wall_ms"] * (1.0 + tolerance)
        if cand["wall_ms"] > limit:
            problems.append(
                f"{label}: wall_ms {cand['wall_ms']:.3f} exceeds "
                f"{base['wall_ms']:.3f} by more than {tolerance:.0%}"
            )
    return problems


def write_snapshot(snapshot: Dict[str, object], path: str) -> None:
    """Write a snapshot document as stable, diff-friendly JSON."""
    with open(path, "w") as stream:
        json.dump(snapshot, stream, indent=2, sort_keys=True)
        stream.write("\n")


def load_snapshot(path: str) -> Dict[str, object]:
    """Load a snapshot document, validating its shape.

    Raises ``ValueError`` unless the document has the supported schema
    version and a ``rows`` list whose every entry is an object with the
    :data:`ROW_FIELDS`, ``counters`` itself an object.
    """
    with open(path) as stream:
        doc = json.load(stream)
    if not isinstance(doc, dict) or "rows" not in doc:
        raise ValueError(f"{path}: not a bench snapshot")
    if doc.get("schema_version") != SCHEMA_VERSION:
        raise ValueError(
            f"{path}: schema_version {doc.get('schema_version')!r} "
            f"(this tool reads {SCHEMA_VERSION})"
        )
    rows = doc["rows"]
    if not isinstance(rows, list):
        raise ValueError(f"{path}: 'rows' must be a list")
    for i, row in enumerate(rows):
        if not isinstance(row, dict):
            raise ValueError(f"{path}: row {i} is not an object")
        missing = [name for name in ROW_FIELDS if name not in row]
        if missing:
            raise ValueError(f"{path}: row {i} lacks {', '.join(missing)}")
        if not isinstance(row["counters"], dict):
            raise ValueError(f"{path}: row {i} 'counters' is not an object")
    return doc
