"""Every ``tests/…``, ``benchmarks/…``, ``examples/…`` and ``tools/…``
path that ``EXPERIMENTS.md`` or a ``docs/*.md`` page names exists.

A dotted tail on a package path (``tests/reference.maxlive``) names an
attribute of that package, which must exist as well.
"""

import importlib
import re
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
DOCS = [ROOT / "EXPERIMENTS.md", *sorted((ROOT / "docs").glob("*.md"))]
PATH = re.compile(
    r"(?<![\w/.-])((?:tests|benchmarks|examples|tools)/[\w./-]*\w)")


def _exists(path):
    if (ROOT / path).exists():
        return True
    package, _, attr = path.rpartition(".")
    return (ROOT / package / "__init__.py").exists() and hasattr(
        importlib.import_module(package.replace("/", ".")), attr)


@pytest.mark.parametrize("doc", DOCS, ids=lambda p: p.name)
def test_named_paths_exist(doc):
    named = set(PATH.findall(doc.read_text(encoding="utf-8")))
    assert sorted(p for p in named if not _exists(p)) == []


def test_pattern_finds_the_experiments_paths():
    # guards the check above against a pattern that matches nothing
    text = (ROOT / "EXPERIMENTS.md").read_text(encoding="utf-8")
    assert len(set(PATH.findall(text))) >= 16
