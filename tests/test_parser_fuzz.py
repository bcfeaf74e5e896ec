"""Seeded token-mutation fuzzing of the ``.ll`` and ``.ir`` parsers.

Each checked-in example file is cut into tokens (words, single
punctuation characters, whitespace runs) and mutated by deleting,
duplicating or swapping a few non-whitespace tokens.  Whatever the
mutant, the parsers may only reject it with their line-carrying
diagnostic types — never any other exception, which the CLI would
show as a traceback.
"""

import io
import random
import re
from pathlib import Path

import pytest

from repro.frontend import FrontendSyntaxError, LoweringError, lower_module
from repro.frontend.corpus import corpus_paths, parse_path
from repro.ir.parser import IRSyntaxError, parse_functions

SEED = 20070311
MUTANTS = 200
GADGETS = Path(__file__).resolve().parents[1] / "examples" / "gadgets.ir"

_TOKEN_RE = re.compile(r"\s+|[\w.%@$\-']+|.", re.S)


def mutants(text, seed, count=MUTANTS):
    """``count`` seeded mutants of ``text``, one to three edits each."""
    rng = random.Random(seed)
    tokens = _TOKEN_RE.findall(text)
    for _ in range(count):
        out = list(tokens)
        for _ in range(rng.randint(1, 3)):
            solid = [i for i, t in enumerate(out) if not t.isspace()]
            i = rng.choice(solid)
            edit = rng.randrange(3)
            if edit == 0:
                del out[i]
            elif edit == 1:
                out.insert(i, out[i])
            else:
                j = rng.choice(solid)
                out[i], out[j] = out[j], out[i]
        yield "".join(out)


@pytest.mark.parametrize("source", corpus_paths(), ids=lambda p: p.name)
def test_ll_mutants_raise_only_frontend_errors(source, tmp_path):
    path = tmp_path / source.name
    syntax_errors = 0
    for text in mutants(source.read_text(), SEED):
        path.write_text(text)
        try:
            lower_module(parse_path(path))
        except FrontendSyntaxError as exc:
            if not syntax_errors:
                # parse errors are never memoised: the text fails again
                with pytest.raises(FrontendSyntaxError) as again:
                    parse_path(path)
                assert str(again.value) == str(exc)
            syntax_errors += 1
        except LoweringError:
            pass
    assert syntax_errors > 0


def test_ir_mutants_raise_only_ir_syntax_errors():
    rejected = 0
    for text in mutants(GADGETS.read_text(), SEED, count=3 * MUTANTS):
        try:
            parse_functions(io.StringIO(text))
        except IRSyntaxError:
            rejected += 1
    assert rejected > 0
