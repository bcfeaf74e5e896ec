"""The layering of ``docs/ARCHITECTURE.md``: producers never import the
checker or the layers above it, and no ``src/`` module is an orphan.

``repro.analysis`` verifies what the producing packages build, so it
sits above them; only ``cli``, ``engine`` and ``serve`` may import it.
The walk covers every import statement of a producer module, relative
or absolute, at module level or inside a function.

Every ``src/`` module must be imported by another ``src/`` module or
an entry point, by name or through its package's re-export; the few
that are not carry their reason in :data:`UNIMPORTED`.
"""

import ast
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parent.parent / "src" / "repro"
PRODUCERS = (
    "graphs", "ir", "frontend", "coalescing", "allocator", "intervals",
    "challenge", "reductions", "obs",
)
FORBIDDEN = ("repro.analysis", "repro.engine", "repro.serve", "repro.cli")


def _producer_modules():
    paths = [SRC / "budget.py"]
    for package in PRODUCERS:
        paths.extend(sorted((SRC / package).rglob("*.py")))
    return paths


def _module_name(path):
    parts = list(path.relative_to(SRC.parent).with_suffix("").parts)
    if parts[-1] == "__init__":
        parts.pop()
    return ".".join(parts)


def imported_modules(path):
    """Every absolute module name an import statement of ``path`` names."""
    name = _module_name(path)
    is_package = path.name == "__init__.py"
    tree = ast.parse(path.read_text(encoding="utf-8"), str(path))
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                yield alias.name
        elif isinstance(node, ast.ImportFrom):
            if node.level:
                base = name.split(".")
                drop = node.level - 1 if is_package else node.level
                base = base[: len(base) - drop]
                prefix = ".".join(base + ([node.module] if node.module else []))
            else:
                prefix = node.module or ""
            yield prefix
            for alias in node.names:
                yield f"{prefix}.{alias.name}"


def _forbidden(module):
    return any(
        module == banned or module.startswith(banned + ".")
        for banned in FORBIDDEN
    )


def test_resolves_relative_imports():
    assert _module_name(SRC / "ir" / "liveness.py") == "repro.ir.liveness"
    assert "repro.ir.dataflow" in set(
        imported_modules(SRC / "ir" / "liveness.py")
    )
    assert "repro.ir.cfg" in set(imported_modules(SRC / "ir" / "__init__.py"))


@pytest.mark.parametrize(
    "path", _producer_modules(), ids=lambda p: str(p.relative_to(SRC))
)
def test_producer_does_not_import_upper_layers(path):
    bad = sorted({m for m in imported_modules(path) if _forbidden(m)})
    assert bad == [], f"{path.relative_to(SRC)} imports {bad}"


# ---------------------------------------------------------------------------
# no orphans: src/ holds only what the system runs
# ---------------------------------------------------------------------------

#: Where the running system starts: ``python -m repro`` (which runs
#: ``repro.cli``).
ENTRY_POINTS = ("repro.__main__",)

_REDUCTION = ("one of the paper's NP-completeness reductions or a problem "
              "they start from (Theorems 2-6), the subject of "
              "bench_thm2-bench_thm6")
_SEM = ("an input of the semantic certification pass the allocation "
        "group still lacks (ROADMAP item 2)")

#: Modules no other ``src/`` module imports, each kept for a reason.
#: Code that only checks other code goes to ``tests/reference/``
#: instead of onto this list.
UNIMPORTED = {
    "repro.reductions.aggressive_reduction": _REDUCTION,
    "repro.reductions.conservative_reduction": _REDUCTION,
    "repro.reductions.incremental_reduction": _REDUCTION,
    "repro.reductions.optimistic_reduction": _REDUCTION,
    "repro.reductions.kcolor": _REDUCTION,
    "repro.reductions.vertex_cover": _REDUCTION,
    "repro.ir.interp": _SEM + ": runs a program and its allocation",
    "repro.ir.out_of_ssa": _SEM + ": sequences φs on registers",
    "repro.ir.rename": _SEM + ": renames a class to its representative",
}


def _all_modules():
    return {_module_name(path): path for path in sorted(SRC.rglob("*.py"))}


def _reexports(modules):
    """``package.name -> module`` for every name a package ``__init__``
    imports from a module below it."""
    table = {}
    for name, path in modules.items():
        if path.name != "__init__.py":
            continue
        tree = ast.parse(path.read_text(encoding="utf-8"), str(path))
        for node in ast.walk(tree):
            if isinstance(node, ast.ImportFrom) and node.level \
                    and node.module:  # from .module import name
                parts = name.split(".")
                source = ".".join(parts[: len(parts) - node.level + 1]
                                  + [node.module])
                for alias in node.names:
                    table[f"{name}.{alias.asname or alias.name}"] = source
    return table


def imported_by_the_system():
    """Every ``src/`` module another module or an entry point imports,
    directly or through a package's re-export.  A package ``__init__``
    importing a module below it is that re-export, not a use."""
    modules = _all_modules()
    reexports = _reexports(modules)
    reached = set()
    for importer, path in modules.items():
        own = importer + "." if path.name == "__init__.py" else None
        for name in imported_modules(path):
            chain = [name]  # the name, then the modules it came from
            while chain[-1] in reexports and reexports[chain[-1]] not in chain:
                chain.append(reexports[chain[-1]])
            for target in chain:
                if target == importer or (own and target.startswith(own)):
                    continue
                reached.add(target)
    return reached


def test_every_module_is_imported():
    modules = _all_modules()
    reached = imported_by_the_system()
    orphans = sorted(
        name for name, path in modules.items()
        if path.name != "__init__.py" and name not in ENTRY_POINTS
        and name not in reached and name not in UNIMPORTED
    )
    assert orphans == []


def test_allowlist_is_current():
    # an entry that something imports now, or that left src/, must go
    reached = imported_by_the_system()
    modules = _all_modules()
    assert sorted(name for name in UNIMPORTED
                  if name in reached or name not in modules) == []
