"""LLVM-IR subset frontend: lower real programs into the coalescing stack.

Every other instance source in this repository is *generated*
(:mod:`repro.challenge.generator`, :mod:`repro.ir.generators`); this
package is the door for *real* program structure.  It reads a pragmatic
textual subset of LLVM IR — functions, basic blocks, ``br``/``ret``/
``switch`` terminators, φ-nodes, integer arithmetic, compares,
``select``, ``call``, and opaque memory operations — and lowers each
function onto the :mod:`repro.ir` CFG/SSA substrate, so liveness,
interference-graph construction, every coalescing strategy, the
allocators, and the :mod:`repro.analysis` translation validation all
run unchanged on compiler-shaped code.

Pipeline: :mod:`repro.frontend.tokens` (tokenizer) →
:mod:`repro.frontend.parser` (recursive-descent parser, module AST) →
:mod:`repro.frontend.lower` (AST → :class:`repro.ir.Function`) →
:mod:`repro.frontend.corpus` (files → functions → challenge
instances, plus the checked-in ``examples/llvm`` corpus helpers).

See ``docs/FRONTEND.md`` for the grammar subset, the lowering
semantics, and the list of known-unsupported constructs.
"""

from .tokens import FrontendSyntaxError, Token, tokenize
from .parser import (
    LLBlock,
    LLFunction,
    LLInstruction,
    LLModule,
    LLPhi,
    Operand,
    parse_module,
)
from .lower import LoweringError, lower_function, lower_module
from .corpus import (
    cfg_dot,
    corpus_dir,
    corpus_functions,
    corpus_paths,
    function_instance,
    instance_from_path,
    instances_from_path,
    load_functions,
    parse_path,
)

__all__ = [
    "FrontendSyntaxError",
    "Token",
    "tokenize",
    "LLBlock",
    "LLFunction",
    "LLInstruction",
    "LLModule",
    "LLPhi",
    "Operand",
    "parse_module",
    "LoweringError",
    "lower_function",
    "lower_module",
    "cfg_dot",
    "corpus_dir",
    "corpus_functions",
    "corpus_paths",
    "function_instance",
    "instance_from_path",
    "instances_from_path",
    "load_functions",
    "parse_path",
]
