"""Corpus plumbing: ``.ll`` files → functions → challenge instances.

This module is the integration surface of the frontend: the CLI
(``repro info/check/dot/coalesce`` on ``.ll`` files), the campaign
engine (the ``"llvm"`` instance generator), the pinned benchmark
suite, and the tests all come through here.

An instance built from a lowered function is a real-program sibling of
:func:`repro.challenge.generator.program_instance`: block frequencies
are set from loop depths, the interference graph is Chaitin-built with
frequency-weighted move and φ affinities, and with ``k <= 0`` the
register count defaults to the function's **Maxlive** — the tightest
regime, where (Theorem 1) the strict-SSA graph is chordal with
ω = Maxlive and every spare register disappears.

The checked-in corpus lives in ``examples/llvm`` (override with the
``REPRO_LLVM_CORPUS`` environment variable); every file in it must
parse, lower, and pass ``repro check`` clean — CI enforces this.
"""

from __future__ import annotations

import functools
import hashlib
import io
import os
from pathlib import Path
from typing import List, Optional, Tuple

from ..challenge.format import ChallengeInstance
from ..ir.cfg import Function
from ..ir.interference import chaitin_interference, set_frequencies_from_loops
from ..ir.liveness import maxlive
from .lower import lower_module
from .parser import LLModule, parse_module

__all__ = [
    "corpus_dir",
    "corpus_paths",
    "corpus_functions",
    "load_functions",
    "parse_path",
    "function_instance",
    "function_from_path",
    "instance_from_path",
    "instances_from_path",
    "cfg_dot",
]


#: How many parsed modules :func:`parse_path` keeps per process.
_PARSE_MEMO_SIZE = 64


@functools.lru_cache(maxsize=_PARSE_MEMO_SIZE)
def _parse_memo(path: str, text: str) -> LLModule:
    module = parse_module(text)
    module.source = path
    return module


def parse_path(path: "str | os.PathLike") -> LLModule:
    """Read and parse one ``.ll`` file into its module AST.

    Stamps the module's ``source`` with the path so lowered functions
    carry file provenance into diagnostics and SARIF locations.

    The file is read on every call, but the parse is memoised per
    process under ``(path, text)`` — the full text, so a hit is exact
    and an edited file is parsed afresh — for the last
    ``_PARSE_MEMO_SIZE`` distinct keys.  Syntax errors are not cached.
    The returned module is shared between callers: treat it as
    read-only (lowering builds fresh functions from it).
    """
    with open(path) as stream:
        text = stream.read()
    return _parse_memo(str(path), text)


def load_functions(text: str) -> List[Function]:
    """Parse and lower ``.ll`` text into IR functions."""
    return lower_module(parse_module(text))


def function_instance(
    func: Function,
    k: int = 0,
    name: Optional[str] = None,
    weighted: bool = True,
) -> ChallengeInstance:
    """A coalescing instance from one lowered function.

    Sets loop-depth block frequencies, builds the Chaitin interference
    graph (move + φ affinities), and defaults ``k`` to the function's
    Maxlive when not given — the Maxlive = k regime the paper calls
    hardest.
    """
    set_frequencies_from_loops(func)
    if k <= 0:
        k = maxlive(func)
    graph = chaitin_interference(func, weighted=weighted)
    return ChallengeInstance(name=name or func.name, k=k, graph=graph)


def instances_from_path(
    path: "str | os.PathLike", k: int = 0
) -> List[ChallengeInstance]:
    """Lower every function of a ``.ll`` file into an instance."""
    stem = Path(path).stem
    return [
        function_instance(func, k=k, name=f"{stem}:{func.name}")
        for func in lower_module(parse_path(path))
    ]


def function_from_path(
    path: "str | os.PathLike",
    function: Optional[str] = None,
    sha256: Optional[str] = None,
) -> Function:
    """One lowered function from a ``.ll`` file.

    ``function`` selects by name (default: the file's first function).
    ``sha256`` optionally pins the file content: a campaign spec that
    records the digest can never silently run against an edited corpus
    file — the cache key covers only the spec, so the spec must cover
    the data.  :func:`instance_from_path` loads through it; the
    engine's ``"llvm"`` generator reads the file itself and lowers the
    bytes it keyed its build memo by through :func:`_function_from_bytes`.
    """
    return _function_from_bytes(path, Path(path).read_bytes(),
                                function=function, sha256=sha256)


def _function_from_bytes(
    path: "str | os.PathLike",
    data: bytes,
    function: Optional[str] = None,
    sha256: Optional[str] = None,
) -> Function:
    """:func:`function_from_path` over ``data``, the file's content as
    already read: the digest check and the parse see the same bytes."""
    if sha256 is not None:
        digest = hashlib.sha256(data).hexdigest()
        if digest != sha256:
            raise ValueError(
                f"{path}: content digest {digest} does not match the "
                f"spec's pinned sha256 {sha256}"
            )
    # decoded as ``open(path).read()`` decodes, so the parse memo key
    # is the one parse_path uses
    module = _parse_memo(str(path), io.TextIOWrapper(io.BytesIO(data)).read())
    if not module.functions:
        raise ValueError(f"{path}: no functions found")
    source = module.function(function) if function else module.functions[0]
    return lower_module(LLModule([source], source=module.source))[0]


def instance_from_path(
    path: "str | os.PathLike",
    k: int = 0,
    function: Optional[str] = None,
    sha256: Optional[str] = None,
) -> ChallengeInstance:
    """One instance from a ``.ll`` file, as an ``"llvm"`` task builds it.

    The engine's ``"llvm"`` generator builds this instance from the
    same arguments, and memoises it.  Loads via
    :func:`function_from_path` (same ``function`` selection and
    ``sha256`` pinning semantics) and wraps the result with
    :func:`function_instance`.
    """
    func = function_from_path(path, function=function, sha256=sha256)
    return function_instance(
        func, k=k, name=f"{Path(path).stem}:{func.name}"
    )


# ----------------------------------------------------------------------
# the checked-in corpus
# ----------------------------------------------------------------------
#: The checkout's ``examples/llvm``, resolved once at import.
_CHECKOUT_CORPUS = Path(__file__).resolve().parents[3] / "examples" / "llvm"


def corpus_dir() -> Path:
    """The ``examples/llvm`` corpus directory.

    Resolved relative to the repository checkout; the
    ``REPRO_LLVM_CORPUS`` environment variable, read on every call,
    overrides it (useful for installed packages and for pointing the
    stack at an external function corpus).
    """
    override = os.environ.get("REPRO_LLVM_CORPUS")
    if override:
        return Path(override)
    return _CHECKOUT_CORPUS


def corpus_paths() -> List[Path]:
    """Every ``.ll`` file of the corpus, sorted by name."""
    directory = corpus_dir()
    if not directory.is_dir():
        raise RuntimeError(
            f"LLVM corpus directory {directory} not found; run from a "
            "repository checkout or set REPRO_LLVM_CORPUS"
        )
    return sorted(directory.glob("*.ll"))


def corpus_functions() -> List[Tuple[Path, Function]]:
    """Every function of the corpus as ``(path, lowered_function)``."""
    out: List[Tuple[Path, Function]] = []
    for path in corpus_paths():
        for func in lower_module(parse_path(path)):
            out.append((path, func))
    return out


# ----------------------------------------------------------------------
# rendering
# ----------------------------------------------------------------------
def _dot_escape(text: str) -> str:
    return text.replace("\\", "\\\\").replace('"', '\\"')


def cfg_dot(func: Function, name: Optional[str] = None) -> str:
    """Render a function's CFG as Graphviz DOT (blocks as records)."""
    lines = [
        f'digraph "{_dot_escape(name or func.name)}" {{',
        '  node [shape=box, fontname="monospace"];',
    ]
    for block_name in func.block_names():
        block = func.blocks[block_name]
        body = [f"{block_name}:"]
        body += [f"  {phi}" for phi in block.phis]
        body += [f"  {instr}" for instr in block.instrs]
        label = "\\l".join(_dot_escape(line) for line in body) + "\\l"
        lines.append(f'  "{_dot_escape(block_name)}" [label="{label}"];')
    for block_name in func.block_names():
        for succ in func.successors(block_name):
            lines.append(
                f'  "{_dot_escape(block_name)}" -> "{_dot_escape(succ)}";'
            )
    lines.append("}")
    return "\n".join(lines) + "\n"
