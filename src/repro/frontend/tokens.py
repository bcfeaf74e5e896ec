"""Tokenizer for the textual LLVM-IR subset.

Scans ``.ll`` text into a flat list of :class:`Token` objects, each
carrying its 1-based source line so every later stage (parser,
lowering, CLI) can report ``file:line: message`` diagnostics.

Token kinds
-----------

* ``local`` — ``%name``, ``%7``, ``%"quoted name"`` (text is the name
  *without* the sigil);
* ``global`` — ``@name`` / ``@"quoted"`` (ditto);
* ``word`` — bare identifiers and keywords (``define``, ``i32``,
  ``add``, ``nsw`` …);
* ``number`` — integer and float literals, including negatives and the
  ``0x…`` hex-float spelling LLVM uses for doubles;
* ``string`` — a double-quoted literal (``c"…"`` scans as the word
  ``c`` followed by a string);
* ``attr`` — an attribute-group reference ``#0``;
* ``meta`` — a metadata reference ``!name`` / ``!0`` (a bare ``!``
  before ``{`` scans as punctuation);
* ``punct`` — ``( ) { } [ ] < > , = * : !`` (a vararg ellipsis
  ``...`` scans as a word, since ``.`` is an identifier character).

Comments (``;`` to end of line) are dropped.  Anything else raises
:class:`FrontendSyntaxError` with the offending line.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from typing import List

__all__ = ["FrontendSyntaxError", "Token", "tokenize"]


class FrontendSyntaxError(ValueError):
    """Malformed frontend input, with a 1-based source line number.

    ``str(exc)`` reads ``line N: message``; the bare parts are kept on
    ``lineno`` / ``message`` so the CLI can format ``file:line:
    message`` without re-parsing the string.
    """

    def __init__(self, lineno: int, message: str) -> None:
        super().__init__(f"line {lineno}: {message}")
        self.lineno = lineno
        self.message = message


@dataclass(frozen=True)
class Token:
    """One lexical token: ``kind``, source ``text``, 1-based ``line``."""

    kind: str
    text: str
    line: int

    def is_punct(self, text: str) -> bool:
        """True iff this is the punctuation token ``text``."""
        return self.kind == "punct" and self.text == text

    def is_word(self, *texts: str) -> bool:
        """True iff this is a bare word equal to one of ``texts``."""
        return self.kind == "word" and self.text in texts

    def __str__(self) -> str:
        return f"{self.text!r} ({self.kind})"


_IDENT = r'[-a-zA-Z$._][-a-zA-Z$._0-9]*|\d+|"(?:[^"\\]|\\.)*"'

_TOKEN_RE = re.compile(
    r"""
      (?P<ws>\s+)
    | (?P<comment>;[^\n]*)
    | (?P<local>%(?:{ident}))
    | (?P<global>@(?:{ident}))
    | (?P<attr>\#\d+)
    | (?P<meta>!(?:[-a-zA-Z$._0-9]+))
    | (?P<number>-?(?:0x[0-9a-fA-F]+|\d+\.\d+(?:[eE][+-]?\d+)?|\d+(?:[eE][+-]?\d+)?))
    | (?P<string>"(?:[^"\\]|\\.)*")
    | (?P<word>[-a-zA-Z$._][-a-zA-Z$._0-9]*)
    | (?P<punct>[(){{}}\[\]<>,=*:!])
    """.format(ident=_IDENT),
    re.VERBOSE,
)


def _unquote(name: str) -> str:
    if name.startswith('"') and name.endswith('"'):
        return re.sub(r"\\(.)", r"\1", name[1:-1])
    return name


def tokenize(text: str) -> List[Token]:
    """Scan ``text`` into tokens (comments and whitespace dropped)."""
    out: List[Token] = []
    for lineno, line in enumerate(text.splitlines(), start=1):
        pos = 0
        while pos < len(line):
            match = _TOKEN_RE.match(line, pos)
            if match is None:
                raise FrontendSyntaxError(
                    lineno,
                    f"unrecognized character {line[pos]!r}",
                )
            pos = match.end()
            kind = match.lastgroup or ""
            if kind in ("ws", "comment"):
                continue
            value = match.group()
            if kind in ("local", "global"):
                value = _unquote(value[1:])
            elif kind == "meta":
                value = value[1:]
            out.append(Token(kind, value, lineno))
    return out

