"""Every ``tests/…``, ``benchmarks/…``, ``examples/…`` and ``tools/…``
path that ``EXPERIMENTS.md`` or a ``docs/*.md`` page names exists, and
every dotted ``repro.…`` name that those pages, ``DESIGN.md`` or
``README.md`` name resolves.

A dotted tail on a package path (``tests/reference.maxlive``) names an
attribute of that package, which must exist as well.  A dotted name
(``repro.engine.tasks.STRATEGY_TABLE``) is a module, or an attribute
path below the longest module prefix that imports.
"""

import importlib
import re
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
DOCS = [ROOT / "EXPERIMENTS.md", *sorted((ROOT / "docs").glob("*.md"))]
PATH = re.compile(
    r"(?<![\w/.-])((?:tests|benchmarks|examples|tools)/[\w./-]*\w)")
NAMED_DOCS = [ROOT / "DESIGN.md", ROOT / "README.md", *DOCS]
NAME = re.compile(r"(?<![\w/.-])(repro(?:\.\w+)+)")


def _exists(path):
    if (ROOT / path).exists():
        return True
    package, _, attr = path.rpartition(".")
    return (ROOT / package / "__init__.py").exists() and hasattr(
        importlib.import_module(package.replace("/", ".")), attr)


def _resolves(name):
    parts = name.split(".")
    for cut in range(len(parts), 0, -1):
        try:
            obj = importlib.import_module(".".join(parts[:cut]))
        except ImportError:
            continue
        for attr in parts[cut:]:
            if not hasattr(obj, attr):
                return False
            obj = getattr(obj, attr)
        return True
    return False


@pytest.mark.parametrize("doc", DOCS, ids=lambda p: p.name)
def test_named_paths_exist(doc):
    named = set(PATH.findall(doc.read_text(encoding="utf-8")))
    assert sorted(p for p in named if not _exists(p)) == []


def test_pattern_finds_the_experiments_paths():
    # guards the check above against a pattern that matches nothing
    text = (ROOT / "EXPERIMENTS.md").read_text(encoding="utf-8")
    assert len(set(PATH.findall(text))) >= 16


@pytest.mark.parametrize("doc", NAMED_DOCS, ids=lambda p: p.name)
def test_named_modules_resolve(doc):
    named = set(NAME.findall(doc.read_text(encoding="utf-8")))
    assert sorted(n for n in named if not _resolves(n)) == []


def test_pattern_finds_the_design_names():
    # guards the check above against a pattern that matches nothing
    text = (ROOT / "DESIGN.md").read_text(encoding="utf-8")
    assert len(set(NAME.findall(text))) >= 25
