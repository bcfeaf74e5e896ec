"""TL005 of ``tools/typelint.py``: unused module-level imports."""

import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "tools"))

import typelint  # noqa: E402


def _tl005(tmp_path, source):
    path = tmp_path / "mod.py"
    path.write_text("from __future__ import annotations\n" + source)
    return [(line, message) for _, line, code, message
            in typelint.check_module(path) if code == "TL005"]


def test_unused_import_is_flagged(tmp_path):
    found = _tl005(tmp_path, "import os\nfrom typing import List, Tuple\n"
                             "X: List[int] = []\n")
    assert found == [(2, "'os' is imported but never used"),
                     (3, "'Tuple' is imported but never used")]


def test_reads_exports_and_string_annotations_count(tmp_path):
    assert _tl005(tmp_path, (
        "import os.path\n"
        "from typing import Dict, List\n"
        "from json import dumps as encode\n"
        "__all__ = ['encode']\n"
        "def f(x: 'Dict[str, int]') -> 'List[int]':\n"
        "    return [os.path.sep]\n"
    )) == []


def test_noqa_f401_exempts_side_effect_imports(tmp_path):
    assert _tl005(tmp_path, (
        "from json import (  # noqa: F401  (registers codecs)\n"
        "    decoder,\n"
        ")\n"
    )) == []
