"""Recursive-descent parser for the textual LLVM-IR subset.

:func:`parse_module` turns ``.ll`` text into an :class:`LLModule` AST:
functions of labelled basic blocks holding φ-nodes and generic
:class:`LLInstruction` records.  The grammar is the *pragmatic* subset
the coalescing stack needs — which variables an instruction defines and
uses, copies, φs, and control flow — so types are parsed (and
validated for shape) but their details are discarded, and attributes,
metadata, and alignment annotations are skipped.

Supported instructions: integer/float binary ops, ``icmp``/``fcmp``,
``select``, ``phi``, conversion ops (``zext``/``trunc``/``bitcast``…),
``freeze``, ``fneg``, ``call`` (direct callees only), ``alloca``/
``load``/``store``/``getelementptr`` (treated as opaque defs/uses),
and the terminators ``br``, ``switch``, ``ret``, ``unreachable``.
Module-level constructs other than ``define`` (``declare``,
``target``, globals, ``attributes``, metadata) are skipped.  See
``docs/FRONTEND.md`` for the full grammar and the unsupported list.

Structural rules are enforced during parsing with line-accurate
:class:`~repro.frontend.tokens.FrontendSyntaxError` diagnostics:
every block ends with exactly one terminator, φs precede ordinary
instructions, and every SSA name is defined at most once.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field
from typing import List, Optional, Set, Tuple

from .tokens import FrontendSyntaxError, Token, tokenize

__all__ = [
    "Operand",
    "LLPhi",
    "LLInstruction",
    "LLBlock",
    "LLFunction",
    "LLModule",
    "parse_module",
    "BINARY_OPS",
    "CAST_OPS",
    "TERMINATOR_OPS",
]

#: Two-operand arithmetic / bitwise opcodes.
BINARY_OPS = frozenset({
    "add", "sub", "mul", "sdiv", "udiv", "srem", "urem",
    "fadd", "fsub", "fmul", "fdiv", "frem",
    "and", "or", "xor", "shl", "lshr", "ashr",
})

#: ``<op> <ty> <val> to <ty>`` conversion opcodes.
CAST_OPS = frozenset({
    "trunc", "zext", "sext", "fptrunc", "fpext", "fptoui", "fptosi",
    "uitofp", "sitofp", "ptrtoint", "inttoptr", "bitcast",
    "addrspacecast",
})

#: Block terminators of the subset.
TERMINATOR_OPS = frozenset({"br", "switch", "ret", "unreachable"})

_FLAG_WORDS = frozenset({
    "nuw", "nsw", "exact", "inbounds", "inrange", "disjoint", "nneg",
    "fast", "nnan", "ninf", "nsz", "arcp", "contract", "afn", "reassoc",
    "volatile", "inalloca",
})

_CONST_WORDS = frozenset({
    "true", "false", "null", "undef", "poison", "none",
    "zeroinitializer",
})

_TYPE_WORDS = frozenset({
    "void", "half", "bfloat", "float", "double", "fp128", "x86_fp80",
    "ppc_fp128", "label", "metadata", "token", "opaque", "ptr",
    "x86_mmx", "x86_amx",
})

_INT_TYPE_RE = re.compile(r"^i\d+$")


def _is_type_word(text: str) -> bool:
    return text in _TYPE_WORDS or bool(_INT_TYPE_RE.match(text))


@dataclass(frozen=True)
class Operand:
    """One instruction operand: a virtual register, global, or constant.

    ``kind`` is ``"local"`` (an SSA value ``%x``), ``"global"``
    (``@x``), or ``"const"`` (any literal).  ``text`` is the name
    without its sigil, or the literal's spelling.
    """

    kind: str
    text: str

    @property
    def is_local(self) -> bool:
        """True iff the operand is an SSA register."""
        return self.kind == "local"

    def __str__(self) -> str:
        sigil = {"local": "%", "global": "@"}.get(self.kind, "")
        return f"{sigil}{self.text}"


@dataclass
class LLPhi:
    """A parsed φ-node: ``dest = phi ty [val, %pred], …``."""

    dest: str
    incomings: List[Tuple[Operand, str]]
    line: int


@dataclass
class LLInstruction:
    """A parsed non-φ instruction, reduced to defs/uses shape.

    ``opcode`` is the LLVM opcode; ``dest`` the defined register (or
    ``None``); ``operands`` the value operands in source order
    (constants included — lowering filters); ``targets`` the successor
    labels for terminators (branch order preserved: true/false for a
    conditional ``br``, default-first for ``switch``); ``callee`` the
    direct callee of a ``call``; ``predicate`` the ``icmp``/``fcmp``
    condition.
    """

    opcode: str
    dest: Optional[str]
    operands: Tuple[Operand, ...]
    line: int
    targets: Tuple[str, ...] = ()
    callee: Optional[str] = None
    predicate: Optional[str] = None

    @property
    def is_terminator(self) -> bool:
        """True iff this instruction ends its block."""
        return self.opcode in TERMINATOR_OPS


@dataclass
class LLBlock:
    """A labelled basic block: φs, then instructions, last a terminator."""

    label: str
    line: int
    phis: List[LLPhi] = field(default_factory=list)
    instrs: List[LLInstruction] = field(default_factory=list)

    @property
    def terminator(self) -> Optional[LLInstruction]:
        """The block's terminator, if already parsed."""
        if self.instrs and self.instrs[-1].is_terminator:
            return self.instrs[-1]
        return None


@dataclass
class LLFunction:
    """A parsed ``define``: name, parameter registers, body blocks."""

    name: str
    params: List[str]
    blocks: List[LLBlock]
    line: int

    def block_labels(self) -> List[str]:
        """The block labels in source order."""
        return [b.label for b in self.blocks]


@dataclass
class LLModule:
    """A parsed module: the ``define``\\ d functions, in source order.

    ``source`` is the path the module was read from (empty for text
    parsed in memory); lowering copies it onto every
    :class:`repro.ir.cfg.Function` as diagnostic provenance.
    """

    functions: List[LLFunction] = field(default_factory=list)
    source: str = ""

    def function(self, name: str) -> LLFunction:
        """Look up a function by name (without the ``@`` sigil)."""
        for func in self.functions:
            if func.name == name:
                return func
        raise KeyError(f"no function named {name!r} in module")


class _Parser:
    """Token-stream parser; one instance per :func:`parse_module` call."""

    def __init__(self, tokens: List[Token]) -> None:
        self.tokens = tokens
        self.pos = 0

    # ------------------------------------------------------------------
    # stream primitives
    # ------------------------------------------------------------------
    def peek(self, offset: int = 0) -> Optional[Token]:
        """The token ``offset`` ahead, or None past the end."""
        i = self.pos + offset
        return self.tokens[i] if i < len(self.tokens) else None

    def next(self, what: str = "more input") -> Token:
        """Consume and return the next token (error at end of input)."""
        token = self.peek()
        if token is None:
            line = self.tokens[-1].line if self.tokens else 0
            raise FrontendSyntaxError(line, f"unexpected end of input, expected {what}")
        self.pos += 1
        return token

    def error(self, message: str, token: Optional[Token] = None) -> FrontendSyntaxError:
        """A syntax error located at ``token`` (default: the cursor)."""
        if token is None:
            token = self.peek() or (self.tokens[-1] if self.tokens else None)
        line = token.line if token else 0
        return FrontendSyntaxError(line, message)

    def expect_punct(self, text: str) -> Token:
        """Consume exactly the punctuation ``text`` or fail."""
        token = self.next(f"{text!r}")
        if not token.is_punct(text):
            raise self.error(f"expected {text!r}, found {token}", token)
        return token

    def expect_word(self, *texts: str) -> Token:
        """Consume a word token (one of ``texts`` if given) or fail."""
        token = self.next(" or ".join(repr(t) for t in texts) or "a word")
        if token.kind != "word" or (texts and token.text not in texts):
            wanted = " or ".join(repr(t) for t in texts) or "a word"
            raise self.error(f"expected {wanted}, found {token}", token)
        return token

    def accept_punct(self, text: str) -> bool:
        """Consume the punctuation ``text`` if present; report success."""
        token = self.peek()
        if token is not None and token.is_punct(text):
            self.pos += 1
            return True
        return False

    def accept_words(self, words: frozenset) -> List[str]:
        """Consume a run of words drawn from ``words`` (maybe empty)."""
        out: List[str] = []
        while True:
            token = self.peek()
            if token is not None and token.kind == "word" and token.text in words:
                out.append(token.text)
                self.pos += 1
            else:
                return out

    def skip_line(self) -> None:
        """Drop every remaining token on the current token's line."""
        token = self.peek()
        if token is None:
            return
        line = token.line
        while (t := self.peek()) is not None and t.line == line:
            self.pos += 1

    _CLOSERS = {"(": ")", "[": "]", "{": "}", "<": ">"}

    def skip_balanced(self) -> None:
        """Skip a balanced bracket group starting at the current token."""
        opener = self.next("an opening bracket")
        closer = self._CLOSERS.get(opener.text)
        if opener.kind != "punct" or closer is None:
            raise self.error(f"expected a bracket, found {opener}", opener)
        depth = [closer]
        while depth:
            token = self.next(f"{depth[-1]!r}")
            if token.kind != "punct":
                continue
            if token.text in self._CLOSERS:
                depth.append(self._CLOSERS[token.text])
            elif token.text == depth[-1]:
                depth.pop()

    # ------------------------------------------------------------------
    # types and operands
    # ------------------------------------------------------------------
    def parse_type(self) -> str:
        """Consume one type; its precise shape is validated, not kept."""
        token = self.peek()
        if token is None:
            raise self.error("expected a type")
        if token.kind == "word" and _is_type_word(token.text):
            self.pos += 1
            spelled = token.text
        elif token.kind == "local":  # named struct type %struct.x
            self.pos += 1
            spelled = f"%{token.text}"
        elif token.kind == "punct" and token.text in ("<", "[", "{"):
            self.skip_balanced()
            spelled = {"<": "<…>", "[": "[…]", "{": "{…}"}[token.text]
        else:
            raise self.error(f"expected a type, found {token}", token)
        while (t := self.peek()) is not None:
            if t.is_punct("*"):
                self.pos += 1
                spelled += "*"
            elif t.is_punct("("):  # function type: skip the signature
                self.skip_balanced()
                spelled += "(…)"
            else:
                break
        return spelled

    def parse_operand(self) -> Operand:
        """Consume one value operand."""
        token = self.peek()
        if token is None:
            raise self.error("expected an operand")
        if token.kind == "local":
            self.pos += 1
            return Operand("local", token.text)
        if token.kind == "global":
            self.pos += 1
            return Operand("global", token.text)
        if token.kind in ("number", "string", "meta"):
            self.pos += 1
            return Operand("const", token.text)
        if token.kind == "word" and token.text in _CONST_WORDS:
            self.pos += 1
            return Operand("const", token.text)
        if token.kind == "word" and token.text == "c" \
                and (nxt := self.peek(1)) is not None and nxt.kind == "string":
            self.pos += 2
            return Operand("const", nxt.text)
        if token.kind == "punct" and token.text in ("<", "[", "{"):
            self.skip_balanced()
            return Operand("const", "<aggregate>")
        raise self.error(f"expected an operand, found {token}", token)

    def _skip_annotations(self) -> None:
        """Drop trailing ``, align N`` / ``, !dbg !7`` / ``#N`` noise."""
        while True:
            token = self.peek()
            if token is None:
                return
            if token.kind in ("attr", "meta"):
                self.pos += 1
                continue
            if token.is_punct(","):
                nxt = self.peek(1)
                if nxt is not None and nxt.kind == "meta":
                    self.pos += 1
                    continue
                if nxt is not None and nxt.is_word("align"):
                    self.pos += 2
                    self.next("an alignment")
                    continue
            return

    # ------------------------------------------------------------------
    # module level
    # ------------------------------------------------------------------
    def parse_module(self) -> LLModule:
        """Parse a whole module: functions plus skippable top-levels."""
        module = LLModule()
        while (token := self.peek()) is not None:
            if token.is_word("define"):
                module.functions.append(self.parse_function())
            elif token.is_word("declare", "target", "source_filename",
                               "module"):
                self.skip_line()
            elif token.is_word("attributes"):
                self.pos += 1
                while (t := self.peek()) is not None and not t.is_punct("{"):
                    self.pos += 1
                self.skip_balanced()
            elif token.kind in ("global", "meta"):
                self.skip_line()  # globals and metadata definitions
            else:
                raise self.error(
                    f"unexpected top-level token {token}", token
                )
        return module

    # ------------------------------------------------------------------
    # functions
    # ------------------------------------------------------------------
    def parse_function(self) -> LLFunction:
        """Parse one ``define … { … }`` into an :class:`LLFunction`."""
        define = self.expect_word("define")
        # linkage/visibility/cconv words and the return type all sit
        # between 'define' and the '@name'; none of them matter here.
        while (token := self.peek()) is not None and token.kind != "global":
            if token.is_punct("{") or token.is_punct("}"):
                raise self.error("expected a function name before the body",
                                 token)
            self.pos += 1
        name = self.next("a function name")
        if name.kind != "global":
            raise self.error(f"expected a function name, found {name}", name)

        self._implicit = 0  # next implicit %N for unnamed params/blocks
        self._defined: Set[str] = set()
        params = self._parse_params()
        for p in params:
            self._define(p, define)

        while (token := self.peek()) is not None and not token.is_punct("{"):
            self.pos += 1  # function attributes, section, metadata, ...
        self.expect_punct("{")

        blocks: List[LLBlock] = []
        current: Optional[LLBlock] = None
        labels: Set[str] = set()
        while True:
            token = self.peek()
            if token is None:
                raise self.error(f"function @{name.text} has no closing '}}'",
                                 define)
            if token.is_punct("}"):
                self.pos += 1
                break
            if token.kind in ("word", "number") \
                    and (nxt := self.peek(1)) is not None \
                    and nxt.is_punct(":"):
                self._finish_block(current, token)
                if token.text in labels:
                    raise self.error(
                        f"duplicate block label {token.text!r}", token
                    )
                labels.add(token.text)
                current = LLBlock(token.text, token.line)
                blocks.append(current)
                self.pos += 2
                continue
            if current is None:
                label = str(self._implicit)
                self._implicit += 1
                current = LLBlock(label, token.line)
                labels.add(label)
                blocks.append(current)
            self._parse_statement(current)
        self._finish_block(current, define)
        if not blocks:
            raise self.error(f"function @{name.text} has an empty body",
                             define)
        return LLFunction(name.text, params, blocks, define.line)

    def _define(self, reg: str, token: Token) -> None:
        if reg in self._defined:
            raise self.error(f"redefinition of %{reg}", token)
        self._defined.add(reg)

    def _finish_block(self, block: Optional[LLBlock],
                      token: Token) -> None:
        if block is not None and block.terminator is None:
            raise self.error(
                f"block {block.label!r} has no terminator", token
            )

    def _parse_params(self) -> List[str]:
        self.expect_punct("(")
        params: List[str] = []
        if self.accept_punct(")"):
            return params
        while True:
            token = self.peek()
            if token is not None and token.is_punct("..."):
                self.pos += 1  # varargs marker: no register behind it
            else:
                self.parse_type()
                name: Optional[str] = None
                while (t := self.peek()) is not None:
                    if t.kind == "local":
                        name = t.text
                        self.pos += 1
                        break
                    if t.is_punct(",") or t.is_punct(")"):
                        break
                    self.pos += 1  # parameter attributes: noundef, align N…
                if name is None:
                    name = str(self._implicit)
                    self._implicit += 1
                params.append(name)
            if self.accept_punct(")"):
                return params
            self.expect_punct(",")

    # ------------------------------------------------------------------
    # statements
    # ------------------------------------------------------------------
    def _parse_statement(self, block: LLBlock) -> None:
        dest: Optional[Token] = None
        token = self.peek()
        if token is not None and token.kind == "local" \
                and (nxt := self.peek(1)) is not None and nxt.is_punct("="):
            dest = token
            self.pos += 2
        op = self.next("an instruction")
        if op.kind != "word":
            raise self.error(f"expected an opcode, found {op}", op)
        if block.terminator is not None:
            raise self.error(
                f"instruction after the terminator of block "
                f"{block.label!r}", op
            )
        if op.text == "phi":
            if block.instrs:
                raise self.error(
                    "phi must precede every non-phi instruction of its "
                    "block", op
                )
            block.phis.append(self._parse_phi(dest, op))
            self._skip_annotations()
            return
        instr = self._parse_instruction(dest, op)
        self._skip_annotations()
        block.instrs.append(instr)

    def _need_dest(self, dest: Optional[Token], op: Token) -> str:
        if dest is None:
            raise self.error(
                f"{op.text} must assign its result to a register", op
            )
        self._define(dest.text, dest)
        return dest.text

    def _no_dest(self, dest: Optional[Token], op: Token) -> None:
        if dest is not None:
            raise self.error(f"{op.text} does not produce a value", dest)

    def _parse_phi(self, dest: Optional[Token], op: Token) -> LLPhi:
        name = self._need_dest(dest, op)
        self.accept_words(_FLAG_WORDS)
        self.parse_type()
        incomings: List[Tuple[Operand, str]] = []
        while True:
            self.expect_punct("[")
            value = self.parse_operand()
            self.expect_punct(",")
            pred = self.next("a predecessor label")
            if pred.kind != "local":
                raise self.error(
                    f"expected a predecessor label, found {pred}", pred
                )
            self.expect_punct("]")
            incomings.append((value, pred.text))
            if not self.accept_punct(","):
                break
        return LLPhi(name, incomings, op.line)

    def _parse_label(self) -> str:
        self.expect_word("label")
        token = self.next("a block label")
        if token.kind != "local":
            raise self.error(f"expected a block label, found {token}", token)
        return token.text

    def _parse_instruction(self, dest: Optional[Token],
                           op: Token) -> LLInstruction:
        opcode = op.text
        line = op.line

        if opcode in ("tail", "musttail", "notail"):
            op = self.expect_word("call")
            opcode = "call"

        if opcode in BINARY_OPS:
            name = self._need_dest(dest, op)
            self.accept_words(_FLAG_WORDS)
            self.parse_type()
            a = self.parse_operand()
            self.expect_punct(",")
            b = self.parse_operand()
            return LLInstruction(opcode, name, (a, b), line)

        if opcode in ("icmp", "fcmp"):
            name = self._need_dest(dest, op)
            self.accept_words(_FLAG_WORDS)
            predicate = self.next("a comparison predicate")
            if predicate.kind != "word":
                raise self.error(
                    f"expected a comparison predicate, found {predicate}",
                    predicate,
                )
            self.parse_type()
            a = self.parse_operand()
            self.expect_punct(",")
            b = self.parse_operand()
            return LLInstruction(opcode, name, (a, b), line,
                                 predicate=predicate.text)

        if opcode == "select":
            name = self._need_dest(dest, op)
            self.accept_words(_FLAG_WORDS)
            self.parse_type()
            cond = self.parse_operand()
            self.expect_punct(",")
            self.parse_type()
            a = self.parse_operand()
            self.expect_punct(",")
            self.parse_type()
            b = self.parse_operand()
            return LLInstruction(opcode, name, (cond, a, b), line)

        if opcode in CAST_OPS:
            name = self._need_dest(dest, op)
            self.parse_type()
            value = self.parse_operand()
            self.expect_word("to")
            self.parse_type()
            return LLInstruction(opcode, name, (value,), line)

        if opcode in ("freeze", "fneg"):
            name = self._need_dest(dest, op)
            self.accept_words(_FLAG_WORDS)
            self.parse_type()
            value = self.parse_operand()
            return LLInstruction(opcode, name, (value,), line)

        if opcode == "call":
            return self._parse_call(dest, op)

        if opcode == "alloca":
            name = self._need_dest(dest, op)
            self.accept_words(_FLAG_WORDS)
            self.parse_type()
            operands: List[Operand] = []
            while self.accept_punct(","):
                token = self.peek()
                if token is not None and token.is_word("align"):
                    self.pos += 1
                    self.next("an alignment")
                    continue
                if token is not None and token.is_word("addrspace"):
                    self.pos += 1
                    self.skip_balanced()
                    continue
                self.parse_type()
                operands.append(self.parse_operand())
            return LLInstruction(opcode, name, tuple(operands), line)

        if opcode == "load":
            name = self._need_dest(dest, op)
            self.accept_words(_FLAG_WORDS)
            self.parse_type()
            if self.accept_punct(","):
                self.parse_type()  # modern two-type form
            pointer = self.parse_operand()
            return LLInstruction(opcode, name, (pointer,), line)

        if opcode == "store":
            self._no_dest(dest, op)
            self.accept_words(_FLAG_WORDS)
            self.parse_type()
            value = self.parse_operand()
            self.expect_punct(",")
            self.parse_type()
            pointer = self.parse_operand()
            return LLInstruction(opcode, None, (value, pointer), line)

        if opcode == "getelementptr":
            name = self._need_dest(dest, op)
            self.accept_words(_FLAG_WORDS)
            self.parse_type()
            operands = []
            while self.accept_punct(","):
                token = self.peek()
                if token is not None and token.is_word("align"):
                    self.pos += 1
                    self.next("an alignment")
                    continue
                self.parse_type()
                operands.append(self.parse_operand())
            return LLInstruction(opcode, name, tuple(operands), line)

        if opcode == "br":
            self._no_dest(dest, op)
            token = self.peek()
            if token is not None and token.is_word("label"):
                target = self._parse_label()
                return LLInstruction(opcode, None, (), line,
                                     targets=(target,))
            self.parse_type()
            cond = self.parse_operand()
            self.expect_punct(",")
            then_target = self._parse_label()
            self.expect_punct(",")
            else_target = self._parse_label()
            return LLInstruction(opcode, None, (cond,), line,
                                 targets=(then_target, else_target))

        if opcode == "switch":
            self._no_dest(dest, op)
            self.parse_type()
            value = self.parse_operand()
            self.expect_punct(",")
            targets = [self._parse_label()]
            self.expect_punct("[")
            while not self.accept_punct("]"):
                self.parse_type()
                self.parse_operand()
                self.expect_punct(",")
                targets.append(self._parse_label())
            return LLInstruction(opcode, None, (value,), line,
                                 targets=tuple(targets))

        if opcode == "ret":
            self._no_dest(dest, op)
            token = self.peek()
            if token is not None and token.is_word("void"):
                self.pos += 1
                return LLInstruction(opcode, None, (), line)
            self.parse_type()
            value = self.parse_operand()
            return LLInstruction(opcode, None, (value,), line)

        if opcode == "unreachable":
            self._no_dest(dest, op)
            return LLInstruction(opcode, None, (), line)

        raise self.error(
            f"unsupported opcode {opcode!r} (see docs/FRONTEND.md for "
            "the supported subset)", op
        )

    def _parse_call(self, dest: Optional[Token],
                    op: Token) -> LLInstruction:
        name = self._need_dest(dest, op) if dest is not None else None
        # calling convention / return attributes, then the return type
        while (token := self.peek()) is not None and token.kind == "word" \
                and not _is_type_word(token.text):
            self.pos += 1
        self.parse_type()
        token = self.peek()
        if token is not None and token.kind == "local":
            raise self.error(
                "indirect calls are not supported (direct @callee only)",
                token,
            )
        callee_token = self.next("a callee")
        if callee_token.kind != "global":
            raise self.error(
                f"expected a direct @callee, found {callee_token}",
                callee_token,
            )
        self.expect_punct("(")
        operands: List[Operand] = []
        if not self.accept_punct(")"):
            while True:
                self.parse_type()
                while (t := self.peek()) is not None and (
                    (t.kind == "word" and t.text not in _CONST_WORDS
                     and t.text != "c")
                    or t.kind == "attr"
                ):
                    self.pos += 1  # argument attributes: noundef, align…
                    if t.is_word("align"):
                        self.next("an alignment")
                operands.append(self.parse_operand())
                if self.accept_punct(")"):
                    break
                self.expect_punct(",")
        return LLInstruction("call", name, tuple(operands), op.line,
                             callee=callee_token.text)


def parse_module(text: str) -> LLModule:
    """Parse ``.ll`` text into an :class:`LLModule`.

    Raises :class:`~repro.frontend.tokens.FrontendSyntaxError` with a
    1-based line number on any input outside the supported subset.
    """
    return _Parser(tokenize(text)).parse_module()
