"""Text format for IR functions: parse the printed form back.

``Function.__str__`` prints a block as::

    name:
      x = phi(pred1: a, pred2: b)
      z = add x, y
      ret z
      -> succ1, succ2

This module parses exactly that shape (plus ``# comments`` and a
``func NAME [entry BLOCK]`` header line), so programs round-trip
through text — tests, examples, and the CLI all build on it.
"""

from __future__ import annotations

import re
from typing import List, Optional, TextIO, Tuple

from .cfg import Function
from .instructions import Instr, Phi

_BLOCK_RE = re.compile(r"^(\w[\w.\-']*):$")
_EDGE_RE = re.compile(r"^->\s*(.+)$")
_PHI_RE = re.compile(r"^([\w.\-']+)\s*=\s*phi\((.*)\)$")
_ASSIGN_RE = re.compile(r"^(.+?)\s*=\s*(\w+)(?:\s+(.*))?$")
_HEADER_RE = re.compile(r"^func\s+(\S+)(?:\s+entry\s+(\S+))?$")
_FREQ_RE = re.compile(r"^freq\s+(\S+)\s+([0-9.eE+-]+)$")


class IRSyntaxError(ValueError):
    """Raised on malformed IR text, with a line number.

    ``lineno`` and the bare ``message`` are kept as attributes so the
    CLI can print ``file:line: message`` without re-parsing ``str(exc)``
    (the frontend's errors expose the same pair).
    """

    def __init__(self, lineno: int, message: str) -> None:
        super().__init__(f"line {lineno}: {message}")
        self.lineno = lineno
        self.message = message


def _split_names(text: str) -> Tuple[str, ...]:
    return tuple(p.strip() for p in text.split(",") if p.strip())


def parse_function(text: str, offset: int = 0) -> Function:
    """Parse one function from text.

    The first block encountered is the entry unless a ``func`` header
    names one.  ``freq BLOCK VALUE`` lines set static frequencies.
    ``offset`` shifts the 1-based line numbers recorded as provenance
    (and reported in errors) — :func:`parse_functions` passes each
    chunk's position in the surrounding file.
    """
    func: Optional[Function] = None
    name = "f"
    entry: Optional[str] = None
    current: Optional[str] = None
    pending_freq: List[Tuple[str, float]] = []
    labeled: set = set()
    source_line = 0

    for lineno, raw in enumerate(text.splitlines(), start=1 + offset):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue

        if not source_line:
            source_line = lineno

        header = _HEADER_RE.match(line)
        if header:
            name = header.group(1)
            entry = header.group(2)
            continue

        freq = _FREQ_RE.match(line)
        if freq:
            pending_freq.append((freq.group(1), float(freq.group(2))))
            continue

        block_match = _BLOCK_RE.match(line)
        if block_match:
            label = block_match.group(1)
            if func is None:
                func = Function(name, entry or label)
            func.add_block(label).line = lineno
            labeled.add(label)
            current = label
            continue

        if func is None or current is None:
            raise IRSyntaxError(lineno, f"statement before any block: {line!r}")

        edge = _EDGE_RE.match(line)
        if edge:
            for succ in _split_names(edge.group(1)):
                func.add_edge(current, succ)
            continue

        phi = _PHI_RE.match(line)
        if phi:
            target = phi.group(1)
            args = {}
            inner = phi.group(2).strip()
            if inner:
                for part in inner.split(","):
                    if ":" not in part:
                        raise IRSyntaxError(
                            lineno, f"malformed phi argument {part!r}"
                        )
                    pred, var = part.split(":", 1)
                    args[pred.strip()] = var.strip()
            func.blocks[current].phis.append(Phi(target, args, line=lineno))
            continue

        assign = _ASSIGN_RE.match(line)
        if assign:
            defs = _split_names(assign.group(1))
            op = assign.group(2)
            uses = _split_names(assign.group(3) or "")
            try:
                func.blocks[current].instrs.append(
                    Instr(op, defs, uses, line=lineno)
                )
            except ValueError as exc:
                raise IRSyntaxError(lineno, str(exc)) from exc
            continue

        # bare op with optional uses: "ret a, b" / "br c" / "nop"
        parts = line.split(None, 1)
        op = parts[0]
        uses = _split_names(parts[1]) if len(parts) > 1 else ()
        func.blocks[current].instrs.append(Instr(op, (), uses, line=lineno))

    if func is None:
        raise IRSyntaxError(0, "no blocks found")
    if entry is not None and entry not in labeled:
        raise IRSyntaxError(0, f"entry block {entry!r} never defined")
    for block, value in pending_freq:
        func.frequency[block] = value
    func.source_line = source_line
    try:
        func.validate()
    except ValueError as exc:
        raise IRSyntaxError(_invalid_line(func), str(exc)) from exc
    return func


def _invalid_line(func: Function) -> int:
    """Source line of the φ that :meth:`Function.validate` rejects.

    That is the first φ whose arguments do not match its block's
    predecessors, the one check parsed text can fail; else the entry
    block's line.
    """
    for name, block in func.blocks.items():
        preds = set(func.predecessors(name))
        for phi in block.phis:
            if set(phi.args) != preds:
                return phi.line
    return func.blocks[func.entry].line


def format_function(func: Function, header: bool = True) -> str:
    """Serialize a function so :func:`parse_function` reads it back.

    Blocks are emitted in a canonical order (reverse postorder from the
    entry, then any unreachable blocks in name order), so serialization
    is stable under parse/format round-trips.
    """
    lines: List[str] = []
    if header:
        lines.append(f"func {func.name} entry {func.entry}")
    order = func.reverse_postorder()
    emitted = set(order)
    order += sorted(set(func.block_names()) - emitted)
    for name in order:
        lines.append(str(func.blocks[name]))
        succs = func.successors(name)
        if succs:
            lines.append(f"  -> {', '.join(succs)}")
    for block, value in func.frequency.items():
        lines.append(f"freq {block} {value:g}")
    return "\n".join(lines) + "\n"


def parse_functions(stream: TextIO) -> List[Function]:
    """Parse a stream of functions separated by ``func`` headers.

    Each function's recorded line numbers are absolute positions in
    the stream (not chunk-relative), so multi-function files report
    diagnostics at the right lines.
    """
    chunks: List[Tuple[int, List[str]]] = []
    for lineno, raw in enumerate(stream, start=1):
        if _HEADER_RE.match(raw.split("#", 1)[0].strip()):
            chunks.append((lineno, [raw]))
        elif chunks:
            chunks[-1][1].append(raw)
        elif raw.split("#", 1)[0].strip():
            chunks.append((lineno, [raw]))
        # leading blank/comment lines before any header are dropped
    return [
        parse_function("".join(chunk), offset=start - 1)
        for start, chunk in chunks
    ]
