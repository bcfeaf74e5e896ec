"""The layering of ``docs/ARCHITECTURE.md``: producers never import the
checker or the layers above it.

``repro.analysis`` verifies what the producing packages build, so it
sits above them; only ``cli``, ``engine`` and ``serve`` may import it.
The walk covers every import statement of a producer module, relative
or absolute, at module level or inside a function.
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
