"""Compiler-IR substrate: CFG, dominance, liveness, SSA, interference.

This layer exists so the coalescing problems are exercised on
interference graphs coming from *programs*, not only on synthetic
graphs — in particular to reproduce Theorem 1 (strict SSA interference
graphs are chordal with ω = Maxlive) and the out-of-SSA connection to
aggressive coalescing.
"""

from .instructions import Instr, Phi, Var, move
from .cfg import BasicBlock, Function
from .builder import BlockBuilder, FunctionBuilder
from .dominance import DominatorTree, dominance_frontiers, loop_depths
from .liveness import (
    LivenessInfo,
    check_strict,
    compute_liveness,
    live_at_points,
    liveness_masks,
    maxlive,
)
from .ssa import construct_ssa
from .out_of_ssa import (
    count_moves,
    eliminate_phis,
    isolate_phis,
    phi_webs,
    sequentialize_parallel_copy,
)
from .interference import (
    chaitin_interference,
    intersection_interference,
    set_frequencies_from_loops,
)
from .generators import GeneratorConfig, random_function
from .interp import (
    Stuck,
    Trace,
    apply_assignment,
    equivalent,
    input_stream,
    run,
)
from .rename import rename_by_classes
from .parser import (
    IRSyntaxError,
    format_function,
    parse_function,
    parse_functions,
)

__all__ = [
    "Instr",
    "Phi",
    "Var",
    "move",
    "BasicBlock",
    "Function",
    "BlockBuilder",
    "FunctionBuilder",
    "DominatorTree",
    "dominance_frontiers",
    "loop_depths",
    "LivenessInfo",
    "check_strict",
    "compute_liveness",
    "live_at_points",
    "liveness_masks",
    "maxlive",
    "construct_ssa",
    "count_moves",
    "eliminate_phis",
    "isolate_phis",
    "phi_webs",
    "sequentialize_parallel_copy",
    "chaitin_interference",
    "intersection_interference",
    "set_frequencies_from_loops",
    "GeneratorConfig",
    "random_function",
    "Stuck",
    "Trace",
    "apply_assignment",
    "equivalent",
    "input_stream",
    "run",
    "rename_by_classes",
    "IRSyntaxError",
    "format_function",
    "parse_function",
    "parse_functions",
]
