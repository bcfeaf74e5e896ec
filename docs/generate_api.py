#!/usr/bin/env python3
"""Regenerate docs/API.md from module and callable docstrings.

Run as ``PYTHONPATH=src python docs/generate_api.py``.  The script is
also the docs linter: it exits non-zero (with the problems on stderr)
when

* a public module under ``repro`` is missing from the curated MODULES
  list below (or a listed module no longer exists),
* a listed module has no module docstring, or
* a public function/class in a listed module has no docstring.

CI runs it and then checks ``git diff --exit-code docs/API.md``, so the
committed reference can never drift from the code.
"""

import importlib
import inspect
import io
import os
import pkgutil
import sys

MODULES = [
    "repro.graphs.graph", "repro.graphs.interference", "repro.graphs.dense",
    "repro.graphs.chordal",
    "repro.graphs.coloring", "repro.graphs.greedy", "repro.graphs.generators",
    "repro.graphs.io",
    "repro.ir.instructions", "repro.ir.cfg", "repro.ir.builder",
    "repro.ir.dominance", "repro.ir.dataflow", "repro.ir.liveness",
    "repro.ir.ssa",
    "repro.ir.out_of_ssa", "repro.ir.interference", "repro.ir.generators",
    "repro.ir.parser", "repro.ir.interp",
    "repro.ir.rename",
    "repro.frontend.tokens", "repro.frontend.parser",
    "repro.frontend.lower", "repro.frontend.corpus",
    "repro.coalescing.base", "repro.coalescing.aggressive",
    "repro.coalescing.conservative", "repro.coalescing.incremental",
    "repro.coalescing.optimistic", "repro.coalescing.exact",
    "repro.coalescing.chordal_strategy", "repro.coalescing.biased",
    "repro.allocator.spill", "repro.allocator.chaitin", "repro.allocator.irc",
    "repro.allocator.ssa_allocator",
    "repro.intervals.model", "repro.intervals.linear_scan",
    "repro.intervals.coalesce",
    "repro.obs.tracer", "repro.obs.export", "repro.obs.names",
    "repro.bench.snapshot",
    "repro.budget",
    "repro.engine.tasks", "repro.engine.pool", "repro.engine.cache",
    "repro.engine.campaign",
    "repro.serve.http", "repro.serve.protocol", "repro.serve.admission",
    "repro.serve.service", "repro.serve.client",
    "repro.reductions.sat", "repro.reductions.multiway_cut",
    "repro.reductions.vertex_cover", "repro.reductions.kcolor",
    "repro.reductions.aggressive_reduction",
    "repro.reductions.conservative_reduction",
    "repro.reductions.incremental_reduction",
    "repro.reductions.optimistic_reduction",
    "repro.challenge.format", "repro.challenge.generator",
    "repro.challenge.scoring",
    "repro.analysis.diagnostics", "repro.analysis.registry",
    "repro.analysis.flow_check",
    "repro.analysis.provenance", "repro.analysis.sarif",
    "repro.analysis.ssa_check", "repro.analysis.liveness_check",
    "repro.analysis.certificates", "repro.analysis.coalescing_check",
    "repro.analysis.runner", "repro.analysis.engine_check",
    "repro.analysis.interval_check",
    "repro.cli",
]


def discover_public_modules():
    """All importable non-underscore leaf modules under ``repro``."""
    root = importlib.import_module("repro")
    found = set()
    for info in pkgutil.walk_packages(root.__path__, prefix="repro."):
        leaf = info.name.rsplit(".", 1)[-1]
        if leaf.startswith("_") or info.ispkg:
            continue
        found.add(info.name)
    return found


def check_coverage(errors):
    discovered = discover_public_modules()
    listed = set(MODULES)
    for name in sorted(discovered - listed):
        errors.append(f"module {name} is missing from MODULES")
    for name in sorted(listed - discovered):
        errors.append(f"MODULES lists {name}, which does not exist")


def render(errors):
    out = io.StringIO()
    out.write("# API reference\n\n")
    out.write(
        "One-line summaries of every public item, generated from the\n"
        "docstrings (`python docs/generate_api.py` regenerates this file).\n"
    )
    for name in MODULES:
        try:
            mod = importlib.import_module(name)
        except ImportError as exc:
            errors.append(f"cannot import {name}: {exc}")
            continue
        out.write(f"\n## `{name}`\n\n")
        doc = (mod.__doc__ or "").strip().splitlines()
        if doc:
            out.write(doc[0].strip() + "\n\n")
        else:
            errors.append(f"module {name} has no docstring")
        for attr in sorted(dir(mod)):
            if attr.startswith("_"):
                continue
            obj = getattr(mod, attr)
            if getattr(obj, "__module__", None) != name:
                continue
            if not (inspect.isfunction(obj) or inspect.isclass(obj)):
                continue
            first = ((obj.__doc__ or "").strip().splitlines() or [""])[0].strip()
            if not first:
                errors.append(f"{name}.{attr} has no docstring")
            kind = "class" if inspect.isclass(obj) else "def"
            out.write(f"* **`{attr}`** ({kind}) — {first}\n")
    return out.getvalue()


def main() -> int:
    errors = []
    check_coverage(errors)
    text = render(errors)
    if errors:
        for problem in errors:
            print(f"error: {problem}", file=sys.stderr)
        print(f"{len(errors)} problem(s); docs/API.md not written",
              file=sys.stderr)
        return 1
    target = os.path.join(os.path.dirname(__file__), "API.md")
    with open(target, "w") as stream:
        stream.write(text)
    print(f"wrote {target}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
