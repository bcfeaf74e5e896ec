"""Command-line interface: ``python -m repro <command>``.

Commands
--------

``info FILE``
    Statistics of the instances in a challenge file, a DIMACS graph
    (``--dimacs``), or a textual LLVM-IR ``.ll`` file (one instance
    per function, lowered by :mod:`repro.frontend`; ``--k`` overrides
    the Maxlive default): sizes, chordality, colouring number.

``coalesce FILE [--strategy S] [--k K]``
    Run a coalescing strategy on every instance of a challenge file and
    report the residual move weight per instance.

``allocate FILE [--k K] [--allocator A] [--coalescing S]``
    Register-allocate the IR functions in FILE (the text format of
    :mod:`repro.ir.parser`).

``generate [--kind pressure|program] [--count N] [--k K] [-o FILE]``
    Emit challenge-style instances.

``report FILE [--strategy S] [--k K] [--json | --csv] [-o FILE]``
    Run a strategy with a :mod:`repro.obs` tracer attached and emit the
    per-instance counters, span timings, and result statistics (plain
    text, JSON, or CSV).  ``coalesce`` and ``allocate`` accept
    ``--trace`` for the same data inline.

``dot FILE [--instance NAME] [--cfg]``
    Render an instance as Graphviz DOT on stdout; ``--cfg`` renders a
    ``.ll``/IR function's control-flow graph instead.

``campaign {run,status,resume} SPEC [--workers N] [--cache-dir DIR]``
    Execute an experiment campaign (a JSON spec of task grids) through
    the :mod:`repro.engine` worker pool: parallel, timeout-bounded,
    crash-isolated, and resumable via the on-disk result cache.  With
    ``--verify`` every result is certified by the analysis passes and
    the per-task verdicts land in the summary artifact.  See
    ``docs/ENGINE.md``.

``check FILE... [--json] [--severity LEVEL] [--k K] [--sarif OUT]``
    Run the :mod:`repro.analysis` static checker over challenge files,
    IR files, ``.ll`` files, or DIMACS graphs (auto-detected per
    file).  ``--sarif`` exports a SARIF 2.1.0 log with ``file:line``
    locations; ``--baseline``/``--write-baseline`` gate on new
    findings only.  See ``docs/ANALYSIS.md`` for the pass catalog and
    diagnostic codes.

``bench {snapshot,compare} [BASELINE] [--repeats N] [--tolerance T]``
    Run the pinned dense-kernel suite (interference build, MCS, greedy
    colouring, live intervals, linear scan, conservative coalescing)
    and write a schema-versioned ``BENCH_<rev>.json`` with wall-times
    and exact work counters — or compare a fresh run against a
    committed baseline as the CI regression gate.  A malformed
    snapshot file exits 2.  See ``docs/PERFORMANCE.md``.

``serve [--port P] [--workers N] [--cache-dir DIR] [--mem-entries N]``
    Run the resident :mod:`repro.serve` service: an asyncio HTTP API
    that executes each task request as one dispatch on a persistent
    worker pool, with bounded-queue backpressure and a two-tier result
    cache.  Runs until a client POSTs ``/drain`` (or Ctrl-C, which
    drains gracefully).  A numeric flag out of range exits 2.  See
    ``docs/SERVING.md``.

``client [--url U] [--requests N] [--mode closed|open] [--json]``
    Drive a running service with generated task load and report
    throughput, latency percentiles, cache hits, and backpressure
    outcomes; ``--drain`` drains the service afterwards.

Exit codes
----------

Every command uses the same scheme:

* ``0`` — success, no findings;
* ``1`` — the command ran but found problems (diagnostics at or above
  the threshold, failed tasks, invalid allocations, failing scores, a
  strategy that errored on an instance);
* ``2`` — usage or input errors: a file that is missing, empty, or
  malformed, a spec that does not parse, a required ``--k`` that was
  not given, a ``--k`` below 1 (``generate``, ``allocate``) or a
  ``--margin`` outside ``0..k-1``.  Parse errors that carry a source line (IR and ``.ll``
  input) print as ``file:line: message``.
"""

from __future__ import annotations

import argparse
import json
import os
import random
import sys
import time
from typing import List, Optional

from .challenge.format import dump_instance, load_instances
from .challenge.generator import pressure_instance, program_instance
from .engine.tasks import (
    ALLOCATION_STRATEGIES, COALESCING_STRATEGIES, GREEDY, STRATEGY_TABLE,
    execute_strategy as _run_strategy,
)
from .graphs.chordal import is_chordal
from .graphs.dense import DENSE_TESTS
from .graphs.greedy import coloring_number
from .graphs.io import read_dimacs, to_dot
from .obs import NULL_TRACER, Tracer, merged_report

#: The coalescing strategies ``coalesce``, ``report`` and ``solve`` run
#: without a budget: the table's light ones.
_COALESCE_CHOICES = [name for name in COALESCING_STRATEGIES
                     if not STRATEGY_TABLE[name].heavy]

#: ``allocate --coalescing``: ``none`` and the light strategies whose
#: quotient is greedy-k-colourable, the one target an allocator that
#: spills first can colour without further spills.
_ALLOCATE_COALESCING = ["none", *(name for name in _COALESCE_CHOICES
                                  if STRATEGY_TABLE[name].contract == GREEDY)]


def _print_trace(report: dict, out=None) -> None:
    """Render a tracer report as an indented text block."""
    out = out or sys.stdout
    for name, value in report["counters"].items():
        out.write(f"    {name:<36} {value:g}\n")
    for span in report["spans"]:
        out.write(
            f"    [span] {span['name']:<29} {span['calls']:>5}x "
            f"{span['seconds']*1e3:9.3f} ms\n"
        )


class _InputError(Exception):
    """A file that is missing, unreadable, empty, or malformed."""


def _syntax_error(path: str, exc: Exception) -> "_InputError":
    """Format a parse error as ``file:line: message`` when the
    exception carries a line number (IR and frontend errors do)."""
    lineno = getattr(exc, "lineno", None)
    message = getattr(exc, "message", None)
    if lineno is not None and message is not None:
        return _InputError(f"{path}:{lineno}: {message}")
    return _InputError(f"{path}: {exc}")


def _load_ir_functions(path: str):
    """Parse ``path`` into IR functions — through :mod:`repro.frontend`
    for ``.ll`` input, through :mod:`repro.ir.parser` otherwise."""
    from .ir.parser import IRSyntaxError, parse_functions

    try:
        if _sniff_format(path) == "llvm":
            from .frontend import FrontendSyntaxError, LoweringError, parse_path
            from .frontend.lower import lower_module

            try:
                return lower_module(parse_path(path))
            except (FrontendSyntaxError, LoweringError) as exc:
                raise _syntax_error(path, exc) from exc
        with open(path) as stream:
            functions = parse_functions(stream)
    except OSError as exc:
        raise _InputError(f"{path}: {exc.strerror or exc}") from exc
    except UnicodeDecodeError as exc:
        raise _InputError(f"{path}: {exc}") from exc
    except IRSyntaxError as exc:
        raise _syntax_error(path, exc) from exc
    if not functions:
        raise _InputError(f"{path}: no functions found (empty file?)")
    for func in functions:
        func.source_file = path  # parse_functions records the lines
    return functions


def _load(path: str, dimacs: bool, k: int = 0):
    """Load instances, converting I/O and parse errors to
    :class:`_InputError` so commands exit 2 instead of tracebacking.

    Formats are auto-detected (:func:`_sniff_format`): challenge files
    load as-is, DIMACS graphs wrap into one instance, and ``.ll`` files
    go through the :mod:`repro.frontend` pipeline — one instance per
    lowered function, with ``k`` defaulting to each function's Maxlive.
    """
    from .challenge.format import ChallengeInstance

    try:
        if dimacs:
            with open(path) as stream:
                graph = read_dimacs(stream)
            return [ChallengeInstance(name=path, k=k, graph=graph)]
        if _sniff_format(path) == "llvm":
            from .frontend import (
                FrontendSyntaxError,
                LoweringError,
                instances_from_path,
            )

            try:
                instances = instances_from_path(path, k=k)
            except (FrontendSyntaxError, LoweringError) as exc:
                raise _syntax_error(path, exc) from exc
        else:
            with open(path) as stream:
                instances = load_instances(stream)
    except OSError as exc:
        raise _InputError(f"{path}: {exc.strerror or exc}") from exc
    except _InputError:
        raise
    except ValueError as exc:
        raise _InputError(f"{path}: {exc}") from exc
    if not instances:
        raise _InputError(f"{path}: no instances found (empty file?)")
    return instances


def cmd_info(args: argparse.Namespace) -> int:
    """Describe the instances in a challenge, DIMACS, or ``.ll`` file.

    For ``.ll`` input three live-interval columns join the table —
    Maxlive, the interval count, and the maximum simultaneous interval
    overlap (:mod:`repro.intervals.model`) — so the set and interval
    views of register pressure are comparable at a glance (they must
    agree; the ``maxlive``/``maxovl`` columns print the same number).
    """
    try:
        instances = _load(args.file, args.dimacs, k=args.k)
    except _InputError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    interval_cols: dict = {}
    if not args.dimacs and _sniff_format(args.file) == "llvm":
        from .intervals import interval_stats

        try:
            for func in _load_ir_functions(args.file):
                interval_cols[func.name] = interval_stats(func)
        except _InputError:
            interval_cols = {}
    header = (f"{'instance':<16} {'|V|':>5} {'|E|':>6} {'|A|':>5} "
              f"{'k':>3} {'chordal':>8} {'col':>4}")
    if interval_cols:
        header += f" {'maxlive':>8} {'ivals':>6} {'maxovl':>7}"
    print(header)
    for inst in instances:
        row = (
            f"{inst.name:<16} {len(inst.graph):>5} "
            f"{inst.graph.num_edges():>6} {inst.graph.num_affinities():>5} "
            f"{inst.k:>3} {str(is_chordal(inst.graph)):>8} "
            f"{coloring_number(inst.graph):>4}"
        )
        stats = interval_cols.get(inst.name.rpartition(":")[2])
        if interval_cols:
            if stats:
                row += (f" {stats['maxlive']:>8} {stats['intervals']:>6} "
                        f"{stats['max_overlap']:>7}")
            else:
                row += f" {'-':>8} {'-':>6} {'-':>7}"
        print(row)
    return 0


def cmd_coalesce(args: argparse.Namespace) -> int:
    """Run a coalescing strategy on every instance of a file."""
    if args.k < 0:
        print(f"error: --k must be >= 0, got {args.k}", file=sys.stderr)
        return 2
    try:
        instances = _load(args.file, args.dimacs)
    except _InputError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    status = 0
    trace = getattr(args, "trace", False)
    print(f"{'instance':<16} {'k':>3} {'strategy':<14} "
          f"{'coalesced':>9} {'residual':>9}")
    for inst in instances:
        k = args.k or inst.k
        if k <= 0:
            print(f"{inst.name:<16}  -- no k given (use --k)", file=sys.stderr)
            status = 2
            continue
        tracer = Tracer() if trace else NULL_TRACER
        try:
            result = _run_strategy(inst.graph, k, args.strategy, tracer=tracer)
        except ValueError as exc:
            print(f"{inst.name:<16}  -- {exc}", file=sys.stderr)
            status = max(status, 1)
            continue
        print(
            f"{inst.name:<16} {k:>3} {args.strategy:<14} "
            f"{result.num_coalesced:>9} {result.residual_weight:>9g}"
        )
        if trace:
            _print_trace(tracer.report())
    return status


def cmd_report(args: argparse.Namespace) -> int:
    """Run a strategy under a tracer and emit a structured report."""
    if args.k < 0:
        print(f"error: --k must be >= 0, got {args.k}", file=sys.stderr)
        return 2
    try:
        instances = _load(args.file, args.dimacs)
    except _InputError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    records = []
    reports = []
    status = 0
    for inst in instances:
        k = args.k or inst.k
        if k <= 0:
            print(f"{inst.name}: no k given (use --k)", file=sys.stderr)
            status = 2
            continue
        tracer = Tracer()
        tracer.meta.update(instance=inst.name, k=k, strategy=args.strategy)
        t0 = time.perf_counter()
        try:
            result = _run_strategy(inst.graph, k, args.strategy, tracer=tracer)
        except ValueError as exc:
            print(f"{inst.name}: {exc}", file=sys.stderr)
            status = max(status, 1)
            continue
        elapsed = time.perf_counter() - t0
        records.append({
            "instance": inst.name,
            "k": k,
            "vertices": len(inst.graph),
            "edges": inst.graph.num_edges(),
            "affinities": inst.graph.num_affinities(),
            "coalesced": result.num_coalesced,
            "residual_weight": result.residual_weight,
            "seconds": elapsed,
            **tracer.report(),
        })
        reports.append(tracer)
    payload = {
        "file": args.file,
        "strategy": args.strategy,
        "instances": records,
        "total": merged_report(reports),
    }
    out = open(args.output, "w") if args.output else sys.stdout
    try:
        if args.json:
            json.dump(payload, out, indent=2)
            out.write("\n")
        elif args.csv:
            from .obs import to_csv

            out.write(to_csv(payload["total"]))
        else:
            for rec in records:
                out.write(
                    f"{rec['instance']}: k={rec['k']} "
                    f"coalesced={rec['coalesced']} "
                    f"residual={rec['residual_weight']:g} "
                    f"({rec['seconds']*1e3:.2f} ms)\n"
                )
                _print_trace(rec, out)
            if len(records) > 1:
                out.write("TOTAL over all instances:\n")
                _print_trace(payload["total"], out)
    finally:
        if args.output:
            out.close()
    return status


def cmd_allocate(args: argparse.Namespace) -> int:
    """Register-allocate the IR (or ``.ll``) functions in a file."""
    from .allocator import chaitin_allocate, ssa_allocate
    from .analysis import filter_diagnostics
    from .analysis.runner import check_allocation

    if args.coalescing not in _ALLOCATE_COALESCING:
        print(
            f"error: --coalescing {args.coalescing!r} is not one of "
            f"{', '.join(_ALLOCATE_COALESCING)}",
            file=sys.stderr,
        )
        return 2
    if args.allocator == "chaitin" and args.coalescing not in DENSE_TESTS:
        print(
            f"error: --allocator chaitin coalesces with a conservative "
            f"test; --coalescing {args.coalescing!r} is not one of "
            f"{', '.join(sorted(DENSE_TESTS))}",
            file=sys.stderr,
        )
        return 2
    if args.k < 1:
        print(f"error: --k must be >= 1, got {args.k}", file=sys.stderr)
        return 2
    try:
        functions = _load_ir_functions(args.file)
    except _InputError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    status = 0
    trace = getattr(args, "trace", False)
    for func in functions:
        tracer = Tracer() if trace else NULL_TRACER
        try:
            if args.allocator == "chaitin":
                result = chaitin_allocate(
                    func, args.k, coalesce_test=args.coalescing, tracer=tracer
                )
                extra = ""
            elif args.allocator in ALLOCATION_STRATEGIES:
                result = STRATEGY_TABLE[args.allocator].run(
                    func, args.k, tracer=tracer
                )
                extra = (
                    f", rounds={result.rounds} "
                    f"max_overlap={result.max_overlap}"
                )
            else:
                coalesce = (None if args.coalescing == "none"
                            else STRATEGY_TABLE[args.coalescing].run)
                result, stats = ssa_allocate(func, args.k, coalesce,
                                             tracer=tracer)
                extra = f", phase-2 chordal={stats.chordal}"
        except (ValueError, RuntimeError) as exc:
            print(f"{func.name}: failed ({exc})", file=sys.stderr)
            status = max(status, 1)
            continue
        problems = filter_diagnostics(check_allocation(result), "error")
        verdict = (
            "OK" if not problems
            else f"INVALID ({problems[0].code}: {problems[0].message})"
        )
        print(
            f"{func.name}: k={args.k} spilled={len(result.spilled)} "
            f"coalesced={result.coalesced_moves} "
            f"residual_moves={result.residual_moves} {verdict}{extra}"
        )
        if trace:
            _print_trace(tracer.report())
        if problems:
            status = 1
    return status


def cmd_generate(args: argparse.Namespace) -> int:
    """Emit challenge-style instances."""
    if args.k < 1:
        print(f"error: --k must be >= 1, got {args.k}", file=sys.stderr)
        return 2
    if args.kind == "pressure" and not 0 <= args.margin < args.k:
        print(f"error: --margin must be in 0..{args.k - 1} (below --k), "
              f"got {args.margin}", file=sys.stderr)
        return 2
    out = open(args.output, "w") if args.output else sys.stdout
    try:
        for i in range(args.count):
            if args.kind == "pressure":
                inst = pressure_instance(
                    args.k, args.rounds, margin=args.margin,
                    rng=random.Random(args.seed + i),
                    name=f"pressure{args.seed + i}",
                )
            else:
                inst = program_instance(args.seed + i, args.k)
            dump_instance(inst, out)
    except RuntimeError as exc:
        # spilling cannot bring a program under a k this small
        print(f"error: --k {args.k}: {exc}", file=sys.stderr)
        return 2
    finally:
        if args.output:
            out.close()
    return 0


def cmd_solve(args: argparse.Namespace) -> int:
    """Emit solutions for the instances of a challenge file."""
    from .challenge.scoring import dump_solution, solution_from_result

    try:
        instances = _load(args.file, False)
    except _InputError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    out = open(args.output, "w") if args.output else sys.stdout
    status = 0
    try:
        for inst in instances:
            try:
                result = _run_strategy(inst.graph, inst.k, args.strategy)
                solution = solution_from_result(inst, result)
            except ValueError as exc:
                print(f"{inst.name}: {exc}", file=sys.stderr)
                status = max(status, 1)
                continue
            dump_solution(solution, out)
    finally:
        if args.output:
            out.close()
    return status


def cmd_score(args: argparse.Namespace) -> int:
    """Score a solution file against its instances."""
    from .challenge.scoring import load_solutions, scoreboard

    try:
        instances = _load(args.instances, False)
        with open(args.solutions) as stream:
            solutions = load_solutions(stream)
    except _InputError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except OSError as exc:
        print(f"error: {args.solutions}: {exc.strerror or exc}",
              file=sys.stderr)
        return 2
    except ValueError as exc:
        print(f"error: {args.solutions}: {exc}", file=sys.stderr)
        return 2
    rows = scoreboard(instances, solutions)
    total = 0.0
    ok = True
    print(f"{'instance':<16} {'score':>9}  status")
    for name, value, status in rows:
        shown = f"{value:g}" if value is not None else "-"
        print(f"{name:<16} {shown:>9}  {status}")
        if value is None:
            ok = False
        else:
            total += value
    print(f"{'TOTAL':<16} {total:>9g}")
    return 0 if ok else 1


def cmd_campaign(args: argparse.Namespace) -> int:
    """Run, resume, or inspect an experiment campaign (repro.engine)."""
    from .engine import (
        ResultCache,
        campaign_status,
        load_campaign,
        run_campaign,
        run_campaign_remote,
    )

    try:
        campaign = load_campaign(args.spec)
    except (OSError, ValueError) as exc:
        print(f"campaign spec {args.spec}: {exc}", file=sys.stderr)
        return 2
    if args.remote and args.action != "run":
        print("--remote only applies to 'run' (the service owns the "
              "cache, so status/resume are local-only)", file=sys.stderr)
        return 2
    if args.action == "resume" and not os.path.isdir(args.cache_dir):
        print(
            f"resume: cache directory {args.cache_dir!r} does not exist "
            "(nothing to resume; use 'run')",
            file=sys.stderr,
        )
        return 2

    if args.action == "status":
        status = campaign_status(campaign, ResultCache(args.cache_dir))
        if args.json:
            json.dump(status, sys.stdout, indent=2)
            sys.stdout.write("\n")
        else:
            print(f"campaign {status['campaign']}: "
                  f"{status['total_tasks']} tasks")
            for name, count in status["by_status"].items():
                print(f"  {name:<16} {count}")
            print(f"  {'missing':<16} {status['missing']}")
            print(f"  would run {status['would_run']}, "
                  f"reusable {status['reusable']}")
        return 0

    if args.remote:
        try:
            summary = run_campaign_remote(
                campaign,
                args.remote,
                workers=args.workers,
                verify=True if args.verify else None,
                deadline=args.timeout,
            )
        except (OSError, TimeoutError) as exc:
            print(f"remote campaign: {exc}", file=sys.stderr)
            return 2
    else:
        summary = run_campaign(
            campaign,
            ResultCache(args.cache_dir),
            workers=args.workers,
            timeout=args.timeout,
            retries=args.retries,
            verify=True if args.verify else None,
        )
    if args.output:
        with open(args.output, "w") as stream:
            json.dump(summary, stream, indent=2, sort_keys=True)
            stream.write("\n")
    if args.json:
        json.dump(summary, sys.stdout, indent=2, sort_keys=True)
        sys.stdout.write("\n")
    else:
        print(f"campaign {summary['campaign']}: "
              f"{summary['total_tasks']} tasks, "
              f"{summary['cache_hits']} cache hits, "
              f"{summary['executed']} executed "
              f"in {summary['wall_seconds']:.2f}s "
              f"(workers={summary['workers']})")
        if summary.get("remote"):
            print(f"  remote           {summary['remote']}")
            print(f"  served           {summary['served']}")
        for name, count in summary["by_status"].items():
            print(f"  {name:<16} {count}")
        verification = summary.get("verification")
        if verification and verification.get("enabled"):
            print(f"  verified: {verification['certified']} certified, "
                  f"{len(verification['failed'])} failed, "
                  f"{verification['budget_exceeded']} budget-exceeded, "
                  f"{verification['skipped']} skipped")
            if verification["failed"]:
                print("  VERIFICATION FAILED: "
                      + ", ".join(verification["failed"]))
        counters = summary["trace"]["counters"]
        for name in sorted(c for c in counters if c.startswith("engine.")):
            print(f"  {name:<24} {counters[name]:g}")
        print(f"  result hash      {summary['result_hash']}")
        if summary.get("summary_path"):
            print(f"  summary artifact {summary['summary_path']}")
        if summary["failed_tasks"]:
            print(f"  FAILED tasks: {', '.join(summary['failed_tasks'])}")
    verification = summary.get("verification") or {}
    if summary["failed_tasks"] or verification.get("failed"):
        return 1
    return 0


#: First meaningful tokens that mark a file as textual LLVM IR.
_LLVM_LEADS = (
    "define ", "declare ", "source_filename", "target ", "@", "%", "!",
    "attributes ",
)


def _sniff_format(path: str) -> str:
    """Guess a file's format from its extension and first meaningful
    line: ``llvm`` (``.ll``), ``ir``, ``dimacs``, or ``challenge``."""
    if path.endswith(".ll"):
        return "llvm"
    try:
        with open(path) as stream:
            for line in stream:
                line = line.strip()
                if not line or line.startswith("#"):
                    continue
                if line.startswith(";") or line.startswith(_LLVM_LEADS):
                    return "llvm"
                if line.startswith("func "):
                    return "ir"
                if line.startswith(("c ", "c\t", "p ", "p\t")) \
                        or line == "c":
                    return "dimacs"
                return "challenge"
    except UnicodeDecodeError as exc:
        raise _InputError(f"{path}: {exc}") from exc
    raise _InputError(f"{path}: file is empty")


def cmd_check(args: argparse.Namespace) -> int:
    """Run the static analysis passes over files (repro.analysis).

    Gating (console output and the exit status) happens at the
    ``--severity`` threshold, minus anything a ``--baseline`` file
    suppresses by fingerprint.  ``--sarif`` exports *every* produced
    diagnostic — all severities, baselined results marked suppressed —
    so viewers can filter themselves; ``--write-baseline`` records the
    currently-gating findings and exits 0 (pair it with a later
    ``--baseline`` run to gate on new findings only).
    """
    from .analysis import filter_diagnostics, format_diagnostic
    from .analysis.runner import check_function, check_instance
    from .analysis.sarif import (
        apply_baseline,
        load_baseline,
        write_baseline,
        write_sarif,
    )
    from .budget import Budget

    suppress = set()
    if args.baseline:
        try:
            suppress = load_baseline(args.baseline)
        except (OSError, ValueError, json.JSONDecodeError) as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 2

    status = 0
    file_reports = []
    total_shown = 0
    total_suppressed = 0
    all_diagnostics = []
    all_shown = []
    for path in args.files:
        budget = (Budget(max_steps=args.max_steps)
                  if args.max_steps else None)
        diagnostics = []
        objects = 0
        try:
            fmt = "dimacs" if args.dimacs else _sniff_format(path)
            if fmt in ("ir", "llvm"):
                for func in _load_ir_functions(path):
                    objects += 1
                    diagnostics.extend(check_function(
                        func, k=args.k, budget=budget,
                    ))
            else:
                for inst in _load(path, fmt == "dimacs", k=args.k):
                    objects += 1
                    diagnostics.extend(check_instance(inst, budget=budget))
        except (_InputError, OSError) as exc:
            print(f"error: {exc}", file=sys.stderr)
            status = 2
            continue
        all_diagnostics.extend(diagnostics)
        shown = filter_diagnostics(diagnostics, args.severity)
        shown, hidden = apply_baseline(shown, suppress)
        all_shown.extend(shown)
        total_shown += len(shown)
        total_suppressed += len(hidden)
        report = {
            "path": path,
            "objects": objects,
            "diagnostics": [d.as_dict() for d in shown],
        }
        if hidden:
            report["suppressed"] = len(hidden)
        file_reports.append(report)
        if shown and status == 0:
            status = 1
        if not args.json:
            verdict = "ok" if not shown else f"{len(shown)} finding(s)"
            if hidden:
                verdict += f" ({len(hidden)} baselined)"
            print(f"{path}: {objects} object(s), {verdict}")
            for diag in shown:
                print(f"  {format_diagnostic(diag)}")
    if args.json:
        report = {"files": file_reports, "total_diagnostics": total_shown,
                  "severity": args.severity}
        if total_suppressed:
            report["suppressed"] = total_suppressed
        json.dump(report, sys.stdout, indent=2, sort_keys=True)
        sys.stdout.write("\n")
    if args.sarif:
        write_sarif(args.sarif, all_diagnostics, suppress)
    if args.write_baseline:
        write_baseline(args.write_baseline, all_shown)
        if not args.json:
            print(f"baseline: {len(all_shown)} finding(s) recorded to "
                  f"{args.write_baseline}")
        return 0 if status != 2 else 2
    return status


def cmd_serve(args: argparse.Namespace) -> int:
    """Run the resident serving stack until drained (repro.serve)."""
    import asyncio

    from .serve import ServeConfig, Service

    for flag, value, low in (
        ("--workers", args.workers, 0),
        ("--light-queue", args.light_queue, 1),
        ("--light-concurrency", args.light_concurrency, 1),
        ("--heavy-queue", args.heavy_queue, 1),
        ("--heavy-concurrency", args.heavy_concurrency, 1),
        ("--mem-entries", args.mem_entries, 1),
    ):
        if value < low:
            print(f"error: {flag} must be >= {low}, got {value}",
                  file=sys.stderr)
            return 2
    if args.timeout is not None and args.timeout <= 0:
        print(f"error: --timeout must be > 0, got {args.timeout:g}",
              file=sys.stderr)
        return 2

    config = ServeConfig(
        host=args.host,
        port=args.port,
        workers=args.workers,
        cache_dir=args.cache_dir or None,
        verify_default=args.verify,
        light_queue=args.light_queue,
        light_concurrency=args.light_concurrency,
        heavy_queue=args.heavy_queue,
        heavy_concurrency=args.heavy_concurrency,
        task_timeout=args.timeout,
        mem_entries=args.mem_entries,
    )
    service = Service(config)

    async def run() -> None:
        port = await service.start()
        print(f"repro serve listening on http://{config.host}:{port} "
              f"(workers={config.workers}, "
              f"cache={'on: ' + str(config.cache_dir) if config.cache_dir else 'off'})",
              flush=True)
        await service.serve_until_drained()
        print("drained; exiting", flush=True)

    try:
        asyncio.run(run())
    except KeyboardInterrupt:
        print("interrupted; shutting down", file=sys.stderr)
    return 0


def cmd_client(args: argparse.Namespace) -> int:
    """Generate load against a running service and report latencies."""
    import asyncio

    from .serve.client import LoadConfig, drain, run_load, wait_healthy

    params = {}
    for item in args.param:
        key, sep, value = item.partition("=")
        if not sep or not key:
            print(f"error: --param expects KEY=VALUE, got {item!r}",
                  file=sys.stderr)
            return 2
        try:
            params[key] = json.loads(value)
        except json.JSONDecodeError:
            params[key] = value
    try:
        config = LoadConfig(
            url=args.url,
            requests=args.requests,
            concurrency=args.concurrency,
            mode=args.mode,
            rate=args.rate,
            generator=args.generator,
            strategy=args.strategy,
            k=args.k,
            params=params,
            seed_base=args.seed_base,
            distinct_seeds=args.distinct_seeds,
            verify=args.verify,
            deadline=args.deadline,
            cache_mode="bypass" if args.no_cache else "use",
        )
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2

    async def run() -> dict:
        await wait_healthy(args.url, timeout=args.wait)
        report = await run_load(config)
        if args.drain:
            report["drain"] = await drain(args.url)
        return report

    try:
        report = asyncio.run(run())
    except (OSError, TimeoutError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    if args.output:
        with open(args.output, "w") as stream:
            json.dump(report, stream, indent=2, sort_keys=True)
            stream.write("\n")
    if args.json:
        json.dump(report, sys.stdout, indent=2, sort_keys=True)
        sys.stdout.write("\n")
    else:
        latency = report["latency_ms"]
        print(f"{report['completed']}/{report['requests']} completed "
              f"in {report['wall_seconds']:.2f}s "
              f"({report['throughput_rps']:g} req/s, mode={report['mode']})")
        print(f"  latency ms       p50={latency['p50']:g} "
              f"p90={latency['p90']:g} p99={latency['p99']:g} "
              f"max={latency['max']:g}")
        print(f"  http statuses    {report['http_statuses']}")
        print(f"  record statuses  {report['record_statuses']}")
        print(f"  cache hits       {report['cache_hits']}")
        if report.get("drain"):
            print(f"  drained          {report['drain']['drained']}")
    failures = report["transport_errors"] + sum(
        count for status, count in report["http_statuses"].items()
        if status.startswith("5")
    )
    return 1 if failures else 0


def _tier_hit_rates(url: str) -> Optional[dict]:
    """Cache-tier hit/miss counters scraped from a running service's
    ``/metrics``, with derived hit rates; None when unreachable."""
    import asyncio

    from .serve.client import request_once

    try:
        response = asyncio.run(
            request_once(url, "GET", "/metrics", timeout=5.0)
        )
    except (OSError, TimeoutError):
        return None
    counters = {}
    for line in response.body.decode().splitlines():
        if line.startswith("#") or " " not in line:
            continue
        name, _, value = line.rpartition(" ")
        if name.startswith("repro_cache_"):
            try:
                counters[name] = float(value)
            except ValueError:
                continue
    report: dict = {"url": url}
    for tier in ("memory", "file"):
        hits = counters.get(f"repro_cache_{tier}_hits_total", 0.0)
        misses = counters.get(f"repro_cache_{tier}_misses_total", 0.0)
        probes = hits + misses
        report[tier] = {
            "hits": int(hits),
            "misses": int(misses),
            "hit_rate": round(hits / probes, 4) if probes else None,
        }
    report["memory"]["evictions"] = int(
        counters.get("repro_cache_memory_evictions_total", 0.0)
    )
    return report


def cmd_cache(args: argparse.Namespace) -> int:
    """Inspect or compact a result-cache directory (repro.engine.cache)."""
    from .engine import ResultCache, compact_cache

    if not os.path.isdir(args.cache_dir):
        print(f"cache directory {args.cache_dir!r} does not exist",
              file=sys.stderr)
        return 2
    cache = ResultCache(args.cache_dir)

    if args.action == "stats":
        report = cache.stats()
        report["cache_dir"] = args.cache_dir
        if args.url:
            tiers = _tier_hit_rates(args.url)
            if tiers is None:
                print(f"warning: {args.url} unreachable; file-store "
                      "stats only", file=sys.stderr)
            else:
                report["tiers"] = tiers
        if args.json:
            json.dump(report, sys.stdout, indent=2, sort_keys=True)
            sys.stdout.write("\n")
        else:
            print(f"cache {args.cache_dir}: {report['entries']} entries, "
                  f"{report['bytes']} bytes in a {report['log_bytes']}-byte "
                  f"log")
            tiers = report.get("tiers")
            if tiers:
                for tier in ("memory", "file"):
                    stats = tiers[tier]
                    rate = stats["hit_rate"]
                    print(f"  {tier:<6} tier   hits={stats['hits']} "
                          f"misses={stats['misses']} "
                          f"hit_rate="
                          f"{'n/a' if rate is None else f'{rate:.1%}'}")
        return 0

    if args.max_entries is None and args.max_bytes is None:
        print("compact needs --max-entries and/or --max-bytes",
              file=sys.stderr)
        return 2
    report = compact_cache(
        cache, max_entries=args.max_entries, max_bytes=args.max_bytes
    )
    report["cache_dir"] = args.cache_dir
    if args.json:
        json.dump(report, sys.stdout, indent=2, sort_keys=True)
        sys.stdout.write("\n")
    else:
        print(f"cache {args.cache_dir}: evicted {report['evicted']} "
              f"least-recently-written entries "
              f"({report['entries_before']} -> {report['entries_after']} "
              f"entries, {report['bytes_before']} -> "
              f"{report['bytes_after']} bytes)")
    return 0


def cmd_bench(args: argparse.Namespace) -> int:
    """Run or compare pinned kernel snapshots (repro.bench)."""
    from .bench import (
        BACKEND,
        compare_snapshots,
        load_snapshot,
        run_snapshot,
        write_snapshot,
    )

    if args.action == "snapshot":
        snapshot = run_snapshot(repeats=args.repeats, rev=args.rev)
        print(f"{'kernel':<10} {'instance':<16} {'backend':<7} "
              f"{'wall_ms':>9} {'work':>9}")
        for row in snapshot["rows"]:
            print(f"{row['kernel']:<10} {row['instance']:<16} "
                  f"{row['backend']:<7} {row['wall_ms']:>9.3f} "
                  f"{row['work']:>9}")
        out = args.output or f"BENCH_{snapshot['rev']}.json"
        write_snapshot(snapshot, out)
        print(f"wrote {out}")
        return 0

    # compare
    if not args.baseline:
        print("error: compare needs a baseline BENCH_*.json", file=sys.stderr)
        return 2
    try:
        baseline = load_snapshot(args.baseline)
        if args.candidate:
            candidate = load_snapshot(args.candidate)
        else:
            candidate = run_snapshot(repeats=args.repeats)
    except (OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    problems = compare_snapshots(baseline, candidate, tolerance=args.tolerance)
    if problems:
        print(f"REGRESSION vs {args.baseline}:")
        for problem in problems:
            print(f"  {problem}")
        return 1
    gated = sum(row["backend"] == BACKEND for row in baseline["rows"])
    print(f"ok: no regression vs {args.baseline} "
          f"(tolerance {args.tolerance:.0%}, {gated} {BACKEND} rows)")
    return 0


def cmd_dot(args: argparse.Namespace) -> int:
    """Render one instance (or, with ``--cfg``, a ``.ll``/IR function's
    control-flow graph) as Graphviz DOT on stdout."""
    if args.cfg:
        from .frontend.corpus import cfg_dot

        try:
            functions = _load_ir_functions(args.file)
        except _InputError as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 2
        for func in functions:
            if args.instance and func.name != args.instance:
                continue
            sys.stdout.write(cfg_dot(func))
            return 0
        print(f"function {args.instance!r} not found", file=sys.stderr)
        return 2
    try:
        instances = _load(args.file, args.dimacs)
    except _InputError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    for inst in instances:
        if args.instance and inst.name != args.instance:
            continue
        sys.stdout.write(to_dot(inst.graph, name=inst.name.replace("-", "_")))
        return 0
    print(f"instance {args.instance!r} not found", file=sys.stderr)
    return 2


def build_parser() -> argparse.ArgumentParser:
    """The :mod:`argparse` command-line parser for ``python -m repro``."""
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Register-coalescing library CLI "
        "(reproduction of Bouchez, Darte, Rastello 2006/2007)",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("info", help="describe instances in a file")
    p.add_argument("file")
    p.add_argument("--k", type=int, default=0,
                   help="register count for DIMACS/.ll input "
                   "(.ll defaults to each function's Maxlive)")
    p.add_argument("--dimacs", action="store_true")
    p.set_defaults(func=cmd_info)

    p = sub.add_parser("coalesce", help="run a coalescing strategy")
    p.add_argument("file")
    p.add_argument("--strategy", choices=_COALESCE_CHOICES, default="brute")
    p.add_argument("--k", type=int, default=0, help="override register count")
    p.add_argument("--dimacs", action="store_true")
    p.add_argument("--trace", action="store_true",
                   help="print tracer counters and span timings per instance")
    p.set_defaults(func=cmd_coalesce)

    p = sub.add_parser("allocate", help="register-allocate IR functions")
    p.add_argument("file")
    p.add_argument("--k", type=int, required=True)
    p.add_argument(
        "--allocator",
        choices=["chaitin", "ssa", *ALLOCATION_STRATEGIES],
        default="ssa",
    )
    p.add_argument("--coalescing", default="brute",
                   help="one of " + ", ".join(_ALLOCATE_COALESCING))
    p.add_argument("--trace", action="store_true",
                   help="print tracer counters and span timings per function")
    p.set_defaults(func=cmd_allocate)

    p = sub.add_parser(
        "report", help="run a strategy under a tracer, emit statistics"
    )
    p.add_argument("file")
    p.add_argument("--strategy", choices=_COALESCE_CHOICES, default="brute")
    p.add_argument("--k", type=int, default=0, help="override register count")
    p.add_argument("--dimacs", action="store_true")
    fmt = p.add_mutually_exclusive_group()
    fmt.add_argument("--json", action="store_true",
                     help="emit the full JSON report")
    fmt.add_argument("--csv", action="store_true",
                     help="emit aggregated counters/spans as CSV")
    p.add_argument("-o", "--output")
    p.set_defaults(func=cmd_report)

    p = sub.add_parser("generate", help="emit challenge instances")
    p.add_argument("--kind", choices=["pressure", "program"], default="pressure")
    p.add_argument("--count", type=int, default=5)
    p.add_argument("--k", type=int, default=6)
    p.add_argument("--rounds", type=int, default=9)
    p.add_argument("--margin", type=int, default=0)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("-o", "--output")
    p.set_defaults(func=cmd_generate)

    p = sub.add_parser("solve", help="emit solutions for challenge instances")
    p.add_argument("file")
    p.add_argument("--strategy", choices=_COALESCE_CHOICES, default="brute")
    p.add_argument("-o", "--output")
    p.set_defaults(func=cmd_solve)

    p = sub.add_parser("score", help="score solutions against instances")
    p.add_argument("instances")
    p.add_argument("solutions")
    p.set_defaults(func=cmd_score)

    p = sub.add_parser(
        "campaign",
        help="run/resume/inspect a parallel experiment campaign",
    )
    p.add_argument("action", choices=["run", "status", "resume"])
    p.add_argument("spec", help="campaign spec file (JSON; docs/ENGINE.md)")
    p.add_argument("--workers", type=int, default=None,
                   help="worker processes (0 = inline, no subprocesses)")
    p.add_argument("--cache-dir", default=".repro-cache",
                   help="result cache directory (default .repro-cache)")
    p.add_argument("--timeout", type=float, default=None,
                   help="per-task wall-clock timeout in seconds")
    p.add_argument("--retries", type=int, default=None,
                   help="extra attempts for timed-out/crashed tasks")
    p.add_argument("--json", action="store_true",
                   help="emit the summary/status as JSON")
    p.add_argument("--verify", action="store_true",
                   help="certify every result through the analysis passes")
    p.add_argument("--remote", metavar="URL",
                   help="dispatch the grid through a running service "
                   "('repro serve') instead of a local pool; with "
                   "--remote, --timeout becomes the per-request deadline")
    p.add_argument("-o", "--output", help="also write the summary here")
    p.set_defaults(func=cmd_campaign)

    p = sub.add_parser(
        "check",
        help="run the static analysis passes over files (docs/ANALYSIS.md)",
    )
    p.add_argument("files", nargs="+",
                   help="challenge, IR, or DIMACS files (auto-detected)")
    p.add_argument("--severity", choices=["error", "warning", "info"],
                   default="warning",
                   help="report findings at or above this severity "
                   "(default warning; info explains clean artifacts too)")
    p.add_argument("--k", type=int, default=0,
                   help="register count for DIMACS graphs / IR functions")
    p.add_argument("--dimacs", action="store_true",
                   help="force DIMACS parsing for every file")
    p.add_argument("--max-steps", type=int, default=0,
                   help="cooperative analysis budget (0 = unlimited)")
    p.add_argument("--json", action="store_true",
                   help="emit diagnostics as JSON")
    p.add_argument("--sarif", metavar="PATH",
                   help="export every diagnostic (all severities) as a "
                   "SARIF 2.1.0 log with file:line locations")
    p.add_argument("--baseline", metavar="PATH",
                   help="suppress findings recorded in this baseline "
                   "file; gate on new findings only")
    p.add_argument("--write-baseline", metavar="PATH",
                   help="record the currently-gating findings as a "
                   "baseline and exit 0")
    p.set_defaults(func=cmd_check)

    p = sub.add_parser(
        "bench",
        help="pinned kernel perf snapshots and the regression gate "
        "(docs/PERFORMANCE.md)",
    )
    p.add_argument("action", choices=["snapshot", "compare"])
    p.add_argument("baseline", nargs="?",
                   help="baseline BENCH_*.json (compare only)")
    p.add_argument("--repeats", type=int, default=5,
                   help="timing repetitions per row (min is recorded)")
    p.add_argument("--tolerance", type=float, default=0.25,
                   help="allowed wall-time growth vs baseline "
                   "(default 0.25 = 25%%)")
    p.add_argument("--candidate",
                   help="compare this snapshot file instead of re-running")
    p.add_argument("--rev", help="revision label (default: git short HEAD)")
    p.add_argument("-o", "--output",
                   help="snapshot output path (default BENCH_<rev>.json)")
    p.set_defaults(func=cmd_bench)

    p = sub.add_parser("dot", help="render an instance as Graphviz DOT")
    p.add_argument("file")
    p.add_argument("--instance",
                   help="instance or function name (default: first)")
    p.add_argument("--cfg", action="store_true",
                   help="render the control-flow graph of a .ll/IR "
                   "function instead of an interference graph")
    p.add_argument("--dimacs", action="store_true")
    p.set_defaults(func=cmd_dot)

    p = sub.add_parser(
        "serve",
        help="run the resident task-serving service (docs/SERVING.md)",
    )
    p.add_argument("--host", default="127.0.0.1")
    p.add_argument("--port", type=int, default=8080,
                   help="listen port (0 = ephemeral, printed at startup)")
    p.add_argument("--workers", type=int, default=2,
                   help="persistent pool workers (0 = inline, no "
                   "subprocesses — dev/test only)")
    p.add_argument("--cache-dir", default=".repro-cache",
                   help="shared result cache directory ('' disables)")
    p.add_argument("--verify", action="store_true",
                   help="certify every result through the analysis passes")
    p.add_argument("--light-queue", type=int, default=128,
                   help="max in-flight light-class requests before 429")
    p.add_argument("--light-concurrency", type=int, default=8,
                   help="max concurrent light-class dispatches")
    p.add_argument("--heavy-queue", type=int, default=16,
                   help="max in-flight heavy-class requests before 429")
    p.add_argument("--heavy-concurrency", type=int, default=2,
                   help="max concurrent heavy-class dispatches")
    p.add_argument("--timeout", type=float, default=None,
                   help="per-task wall-clock kill timeout in seconds")
    p.add_argument("--mem-entries", type=int, default=1024,
                   help="in-memory LRU cache tier capacity in records "
                   "(>= 1)")
    p.set_defaults(func=cmd_serve)

    p = sub.add_parser(
        "cache",
        help="inspect or compact a result-cache directory",
    )
    p.add_argument("action", choices=["stats", "compact"])
    p.add_argument("--cache-dir", default=".repro-cache",
                   help="result cache directory (default .repro-cache)")
    p.add_argument("--url", metavar="URL",
                   help="stats: also scrape cache-tier hit rates from "
                   "this running service's /metrics")
    p.add_argument("--max-entries", type=int, default=None,
                   help="compact: keep at most this many records "
                   "(oldest-written evicted first)")
    p.add_argument("--max-bytes", type=int, default=None,
                   help="compact: keep at most this many record bytes "
                   "(dead log lines are always dropped)")
    p.add_argument("--json", action="store_true",
                   help="emit the report as JSON")
    p.set_defaults(func=cmd_cache)

    p = sub.add_parser(
        "client",
        help="drive a running service with generated load",
    )
    p.add_argument("--url", default="http://127.0.0.1:8080")
    p.add_argument("--requests", type=int, default=50)
    p.add_argument("--concurrency", type=int, default=4,
                   help="closed-loop virtual clients")
    p.add_argument("--mode", choices=["closed", "open"], default="closed")
    p.add_argument("--rate", type=float, default=50.0,
                   help="open-loop arrival rate (requests/second)")
    p.add_argument("--generator", default="pressure")
    p.add_argument("--strategy", default="brute",
                   choices=COALESCING_STRATEGIES)
    p.add_argument("--k", type=int, default=6)
    p.add_argument("--param", action="append", default=[],
                   metavar="KEY=VALUE",
                   help="generator parameter (repeatable; values parsed "
                   "as JSON, falling back to strings)")
    p.add_argument("--seed-base", type=int, default=0)
    p.add_argument("--distinct-seeds", type=int, default=None,
                   help="seed cycle length (default: one per request; "
                   "smaller values replay seeds and exercise the cache)")
    p.add_argument("--verify", action="store_true",
                   help="request verification certificates")
    p.add_argument("--deadline", type=float, default=None,
                   help="per-request deadline in seconds")
    p.add_argument("--no-cache", action="store_true",
                   help="ask the service to bypass its result cache")
    p.add_argument("--wait", type=float, default=10.0,
                   help="seconds to wait for the service to become healthy")
    p.add_argument("--drain", action="store_true",
                   help="POST /drain after the load run")
    p.add_argument("--json", action="store_true",
                   help="emit the full report as JSON")
    p.add_argument("-o", "--output", help="also write the report here")
    p.set_defaults(func=cmd_client)

    return parser


def main(argv: Optional[List[str]] = None) -> int:
    """CLI entry point; returns the process exit status.

    A reader that closes standard output early (``repro ... | head``)
    ends the command with status 141 (128 + SIGPIPE) and nothing on
    standard error.
    """
    args = build_parser().parse_args(argv)
    try:
        status = args.func(args)
        sys.stdout.flush()
    except BrokenPipeError:
        # the recipe of Python's signal docs: point stdout at devnull so
        # the interpreter's final flush cannot raise again
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        return 141
    return status


if __name__ == "__main__":
    raise SystemExit(main())
