#!/usr/bin/env python
"""A dependency-free strict type-annotation linter.

The CI type gate runs this instead of mypy so the check works in any
environment with a bare Python interpreter.  It parses every module
under the given roots with :mod:`ast` and enforces, per *public*
function and method (module- or class-level, name not starting with a
single underscore; function-local helpers are implementation details
and are not descended into):

* TL001 — every parameter is annotated (``self``/``cls`` excluded);
* TL002 — the return type is annotated (``__init__`` excluded);
* TL003 — a module that defines functions or classes uses
  ``from __future__ import annotations``;
* TL004 — public functions and classes carry a docstring (dunder
  methods excluded: their contracts are the language's).

and, per module:

* TL005 — every module-level import binds a name the module reads
  (names in string annotations count) or lists in ``__all__``; a
  ``# noqa: F401`` comment on the import exempts a side-effect import.

Exit status: 0 when clean, 1 when any finding, 2 on usage errors —
the same scheme as the ``repro`` CLI (see docs/ANALYSIS.md).

Usage::

    python tools/typelint.py src/repro tools tests/reference [more roots...]
"""

from __future__ import annotations

import ast
import sys
from pathlib import Path
from typing import Iterator, List, Set, Tuple, Union

Finding = Tuple[str, int, str, str]  # path, line, code, message
FunctionNode = Union[ast.FunctionDef, ast.AsyncFunctionDef]

#: Parameter names that never need annotations.
IMPLICIT_PARAMS = frozenset({"self", "cls"})


def iter_sources(roots: List[str]) -> Iterator[Path]:
    """Yield every ``.py`` file under the given roots, sorted."""
    for root in roots:
        base = Path(root)
        if base.is_file() and base.suffix == ".py":
            yield base
        elif base.is_dir():
            yield from sorted(base.rglob("*.py"))
        else:
            raise FileNotFoundError(f"{root}: not a file or directory")


def _is_dunder(name: str) -> bool:
    return name.startswith("__") and name.endswith("__")


def _is_public(name: str) -> bool:
    return _is_dunder(name) or not name.startswith("_")


def _check_function(
    path: Path, node: FunctionNode, findings: List[Finding]
) -> None:
    """Append TL001/TL002/TL004 findings for one public function."""
    args = node.args
    positional = args.posonlyargs + args.args + args.kwonlyargs
    for index, arg in enumerate(positional):
        if index == 0 and arg.arg in IMPLICIT_PARAMS:
            continue
        if arg.annotation is None:
            findings.append((
                str(path), arg.lineno, "TL001",
                f"parameter {arg.arg!r} of {node.name}() is unannotated",
            ))
    for star in (args.vararg, args.kwarg):
        if star is not None and star.annotation is None:
            findings.append((
                str(path), star.lineno, "TL001",
                f"parameter *{star.arg!r} of {node.name}() is unannotated",
            ))
    if node.returns is None and node.name != "__init__":
        findings.append((
            str(path), node.lineno, "TL002",
            f"{node.name}() has no return annotation",
        ))
    if not _is_dunder(node.name) and ast.get_docstring(node) is None:
        findings.append((
            str(path), node.lineno, "TL004",
            f"public function {node.name}() has no docstring",
        ))


def _check_body(
    path: Path, body: List[ast.stmt], findings: List[Finding]
) -> None:
    """Check the defs in one module or class body (not function-local
    helpers — those are implementation details, public name or not)."""
    for node in body:
        if isinstance(node, ast.ClassDef):
            if _is_public(node.name) and ast.get_docstring(node) is None:
                findings.append((
                    str(path), node.lineno, "TL004",
                    f"public class {node.name} has no docstring",
                ))
            _check_body(path, node.body, findings)
        elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            if _is_public(node.name):
                _check_function(path, node, findings)


def _annotations(tree: ast.AST) -> Iterator[ast.expr]:
    """Every annotation expression in ``tree``."""
    for node in ast.walk(tree):
        if isinstance(node, ast.arg) and node.annotation is not None:
            yield node.annotation
        elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)) \
                and node.returns is not None:
            yield node.returns
        elif isinstance(node, ast.AnnAssign):
            yield node.annotation


def _read_names(tree: ast.AST) -> Set[str]:
    """Names the module reads, including those of string annotations."""
    read = {
        node.id for node in ast.walk(tree)
        if isinstance(node, ast.Name) and not isinstance(node.ctx, ast.Store)
    }
    for annotation in _annotations(tree):
        for node in ast.walk(annotation):
            if isinstance(node, ast.Constant) and isinstance(node.value, str):
                try:
                    quoted = ast.parse(node.value, mode="eval")
                except SyntaxError:
                    continue
                read |= _read_names(quoted)
    return read


def _exported(tree: ast.Module) -> Set[str]:
    """The string entries of the module's ``__all__``."""
    names: Set[str] = set()
    for node in tree.body:
        if isinstance(node, (ast.Assign, ast.AugAssign)):
            targets = (node.targets if isinstance(node, ast.Assign)
                       else [node.target])
            if any(isinstance(t, ast.Name) and t.id == "__all__"
                   for t in targets):
                names |= {
                    elt.value for elt in ast.walk(node.value)
                    if isinstance(elt, ast.Constant)
                    and isinstance(elt.value, str)
                }
    return names


def _check_imports(
    path: Path, tree: ast.Module, lines: List[str], findings: List[Finding]
) -> None:
    """Append a TL005 finding for each unused module-level import."""
    used = _read_names(tree) | _exported(tree)
    for node in tree.body:
        if not isinstance(node, (ast.Import, ast.ImportFrom)) \
                or getattr(node, "module", None) == "__future__":
            continue
        end = node.end_lineno or node.lineno
        if any("noqa: F401" in line for line in lines[node.lineno - 1:end]):
            continue
        for alias in node.names:
            bound = alias.asname or alias.name.split(".")[0]
            if alias.name != "*" and bound not in used:
                findings.append((
                    str(path), node.lineno, "TL005",
                    f"{bound!r} is imported but never used",
                ))


def check_module(path: Path) -> List[Finding]:
    """Lint one module; return its findings."""
    source = path.read_text()
    tree = ast.parse(source, filename=str(path))
    findings: List[Finding] = []

    has_future = any(
        isinstance(node, ast.ImportFrom)
        and node.module == "__future__"
        and any(alias.name == "annotations" for alias in node.names)
        for node in tree.body
    )
    has_defs = any(
        isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef,
                          ast.ClassDef))
        for node in tree.body
    )
    if has_defs and not has_future:
        findings.append((
            str(path), 1, "TL003",
            "module defines functions/classes without "
            "'from __future__ import annotations'",
        ))
    _check_body(path, tree.body, findings)
    _check_imports(path, tree, source.splitlines(), findings)
    return findings


def main(argv: List[str]) -> int:
    """CLI entry point; returns the exit status."""
    roots = [a for a in argv if not a.startswith("-")]
    if not roots:
        print("usage: typelint.py ROOT [ROOT...]", file=sys.stderr)
        return 2
    try:
        sources = list(iter_sources(roots))
    except FileNotFoundError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    findings: List[Finding] = []
    for path in sources:
        findings.extend(check_module(path))
    for path, line, code, message in findings:
        print(f"{path}:{line}: {code} {message}")
    print(
        f"typelint: {len(sources)} file(s), {len(findings)} finding(s)",
        file=sys.stderr,
    )
    return 1 if findings else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
