"""Tests for the generic monotone dataflow framework.

Covers the engine itself (validation, determinism, optimistic
initialization for must-problems, the work accounting) and the two
shipped instances: liveness, proven bit-exact against the dense
liveness and the reference liveness of ``tests/reference``, and
definite assignment, which drives the strictness walk — on hand-built
CFGs, fuzz-generated programs, and the whole
``examples``/``examples/llvm`` corpus.
"""

from pathlib import Path

import pytest

from repro.ir.cfg import Function
from repro.ir.dataflow import (
    DataflowProblem,
    DataflowResult,
    definite_assignment_problem,
    liveness_problem,
    solve,
)
from repro.ir.generators import GeneratorConfig, random_function
from repro.ir.instructions import Instr, Phi
from repro.ir.liveness import check_strict, compute_liveness
from repro.obs import WORDS_MERGED, Tracer
from tests import reference as ref

EXAMPLES = Path(__file__).resolve().parent.parent / "examples"


def _diamond():
    f = Function("diamond", "entry")
    for name in ("entry", "left", "right", "join"):
        f.add_block(name)
    f.add_edge("entry", "left")
    f.add_edge("entry", "right")
    f.add_edge("left", "join")
    f.add_edge("right", "join")
    f.blocks["entry"].instrs.append(Instr("const", ("a",), ()))
    f.blocks["entry"].instrs.append(Instr("br", (), ("a",)))
    f.blocks["left"].instrs.append(Instr("inc", ("b",), ("a",)))
    f.blocks["right"].instrs.append(Instr("dec", ("c",), ("a",)))
    f.blocks["join"].phis.append(Phi("d", {"left": "b", "right": "c"}))
    f.blocks["join"].instrs.append(Instr("ret", (), ("d",)))
    return f


def _loop():
    f = Function("loop", "entry")
    for name in ("entry", "head", "body", "exit"):
        f.add_block(name)
    f.add_edge("entry", "head")
    f.add_edge("head", "body")
    f.add_edge("head", "exit")
    f.add_edge("body", "head")
    f.blocks["entry"].instrs.append(Instr("const", ("i0",), ()))
    f.blocks["head"].phis.append(Phi("i", {"entry": "i0", "body": "i1"}))
    f.blocks["head"].instrs.append(Instr("br", (), ("i",)))
    f.blocks["body"].instrs.append(Instr("inc", ("i1",), ("i",)))
    f.blocks["exit"].instrs.append(Instr("ret", (), ("i",)))
    return f


# ---------------------------------------------------------------------------
# problem model
# ---------------------------------------------------------------------------

def test_problem_validates_direction_and_confluence():
    with pytest.raises(ValueError):
        DataflowProblem("x", "sideways", "may", ("a",))
    with pytest.raises(ValueError):
        DataflowProblem("x", "forward", "perhaps", ("a",))


def test_problem_universe_words_index():
    p = DataflowProblem("x", "forward", "may", tuple("abc"))
    assert p.universe == 0b111
    assert p.words == 1
    assert p.index() == {"a": 0, "b": 1, "c": 2}
    wide = DataflowProblem("y", "forward", "may",
                           tuple(f"v{i}" for i in range(65)))
    assert wide.words == 2


def test_result_members_round_trip():
    p = DataflowProblem("x", "forward", "may", tuple("abcd"))
    r = DataflowResult(p, {}, {})
    assert r.members(0b1011) == ["a", "b", "d"]
    assert r.members(0) == []


# ---------------------------------------------------------------------------
# the engine on hand-built CFGs
# ---------------------------------------------------------------------------

def test_liveness_on_diamond():
    func = _diamond()
    problem = liveness_problem(func)
    result = solve(func, problem)
    assert result.in_set("entry") == set()
    # φ-args are live-out of the predecessors, not live-in of the join
    assert result.out_set("left") == {"b"}
    assert result.out_set("right") == {"c"}
    assert result.in_set("join") == set()  # d is φ-defined at the top
    assert result.out_set("join") == set()


def test_liveness_around_loop():
    func = _loop()
    result = solve(func, liveness_problem(func))
    # i is live through the whole loop, i1 only on the backedge
    assert result.in_set("head") == set()  # i is a φ-target
    assert result.out_set("head") == {"i"}
    assert result.out_set("body") == {"i1"}
    assert result.in_set("exit") == {"i"}


def test_definite_assignment_with_backedge_needs_optimistic_init():
    # a pessimistic (all-zero) initialization would leave head's meet
    # permanently empty through the backedge; the optimistic top makes
    # the must-confluence converge to what every entry path assigns
    func = _loop()
    result = solve(func, definite_assignment_problem(func))
    assert result.in_set("head") == {"i0"}
    assert result.out_set("head") == {"i0", "i"}  # the φ assigns i
    assert result.out_set("body") == {"i0", "i", "i1"}
    assert result.in_set("exit") == {"i0", "i"}  # i1 only on the loop


def test_definite_assignment_on_diamond():
    func = _diamond()
    result = solve(func, definite_assignment_problem(func))
    assert result.in_set("join") == {"a"}  # b, c only on one path each
    assert result.out_set("join") == {"a", "d"}  # the φ assigns d


def test_extra_mask_feeds_the_meet():
    func = _diamond()
    base = liveness_problem(func)
    # the φ-uses of the join enter through the predecessors' extra
    index = base.index()
    assert base.extra["left"] == 1 << index["b"]
    assert base.extra["right"] == 1 << index["c"]


def test_unreachable_blocks_excluded():
    func = _diamond()
    func.add_block("island").instrs.append(Instr("ret", (), ()))
    for problem in (liveness_problem, definite_assignment_problem):
        assert "island" not in solve(func, problem(func)).in_masks


def test_solve_is_deterministic_and_idempotent():
    func = _loop()
    problem = liveness_problem(func)
    a = solve(func, problem)
    b = solve(func, problem)
    assert a.in_masks == b.in_masks
    assert a.out_masks == b.out_masks
    assert a.evaluations == b.evaluations


def test_work_accounting_counts_words_merged():
    func = _loop()
    tracer = Tracer()
    result = solve(func, liveness_problem(func), tracer=tracer)
    report = tracer.report()
    assert report["counters"][WORDS_MERGED] > 0
    assert result.evaluations >= len(func.reachable())


def test_worklist_beats_round_robin_on_evaluations():
    # a backward problem visited in postorder converges in ONE sweep on
    # an acyclic CFG — a round-robin loop would pay a second full sweep
    # just to observe nothing changed
    diamond = _diamond()
    assert solve(diamond, liveness_problem(diamond)).evaluations == 4
    # with a loop, only the blocks on the backedge-affected chain are
    # revisited: strictly fewer than two full sweeps
    loop = _loop()
    n = len(loop.reachable())
    assert solve(loop, liveness_problem(loop)).evaluations < 2 * n


# ---------------------------------------------------------------------------
# equivalence: the liveness instance vs the independent implementations
# ---------------------------------------------------------------------------

def _assert_liveness_equivalent(func):
    result = solve(func, liveness_problem(func))
    dense = compute_liveness(func)
    reference = ref.compute_liveness(func)
    for b in func.reachable():
        assert result.in_set(b) == dense.live_in[b] == reference.live_in[b]
        assert result.out_set(b) == dense.live_out[b] == reference.live_out[b]


@pytest.mark.parametrize("seed", range(40))
def test_fuzz_equivalence(seed):
    func = random_function(seed, GeneratorConfig(num_vars=6 + seed % 5))
    _assert_liveness_equivalent(func)
    assert check_strict(func) == []


def test_corpus_equivalence():
    from repro.frontend.corpus import parse_path
    from repro.frontend.lower import lower_module
    from repro.ir.parser import parse_functions

    functions = []
    for path in sorted((EXAMPLES / "llvm").glob("*.ll")):
        functions.extend(lower_module(parse_path(path)))
    for path in sorted(EXAMPLES.glob("*.ir")):
        with open(path) as stream:
            functions.extend(parse_functions(stream))
    assert functions, "corpus should not be empty"
    for func in functions:
        _assert_liveness_equivalent(func)
    