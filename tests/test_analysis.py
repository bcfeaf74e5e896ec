"""Unit tests for the repro.analysis subsystem.

Covers the diagnostic model, the pass registry, each certificate
verifier, the object-level checkers, budget degradation, and the
engine verify hook.
"""

import pytest

from repro.analysis import (
    AnalysisContext,
    Diagnostic,
    filter_diagnostics,
    format_diagnostic,
    load_all_passes,
    max_severity,
    passes_for,
    severity_rank,
)
from repro.analysis.certificates import (
    Certificate,
    verify_coloring_cert,
    verify_elimination_order,
    verify_peo,
)
from repro.analysis.runner import (
    check_allocation,
    check_coalescing_result,
    check_function,
    check_instance,
    run_passes,
)
from repro.budget import Budget
from repro.challenge.generator import pressure_instance
from repro.coalescing.conservative import conservative_coalesce
from repro.graphs.generators import cycle_graph
from repro.graphs.graph import Graph
from repro.graphs.interference import InterferenceGraph
from tests.reference.gadget_programs import phi_merge_diamond, rotation_loop, swap_loop
from repro.ir.interference import chaitin_interference

import random

load_all_passes()


# ---------------------------------------------------------------------------
# diagnostics model
# ---------------------------------------------------------------------------

def test_diagnostic_severity_validated():
    with pytest.raises(ValueError):
        Diagnostic("X001", "fatal", "nope")


def test_severity_rank_and_max():
    assert severity_rank("error") < severity_rank("warning") < severity_rank("info")
    diags = [Diagnostic("A1", "info", "a"), Diagnostic("B1", "warning", "b")]
    assert max_severity(diags) == "warning"
    assert max_severity([]) is None


def test_filter_diagnostics_threshold():
    diags = [
        Diagnostic("A1", "error", "a"),
        Diagnostic("B1", "warning", "b"),
        Diagnostic("C1", "info", "c"),
    ]
    assert [d.code for d in filter_diagnostics(diags, "error")] == ["A1"]
    assert [d.code for d in filter_diagnostics(diags, "warning")] == ["A1", "B1"]
    assert [d.code for d in filter_diagnostics(diags, "info")] == ["A1", "B1", "C1"]


def test_format_and_as_dict():
    d = Diagnostic("A1", "error", "boom", where="x--y", obj="g", passname="p")
    text = format_diagnostic(d)
    assert "A1" in text and "boom" in text and "x--y" in text
    as_dict = d.as_dict()
    assert as_dict["code"] == "A1"
    assert as_dict["pass"] == "p"


# ---------------------------------------------------------------------------
# registry
# ---------------------------------------------------------------------------

def test_registry_has_all_pass_kinds():
    assert {p.name for p in passes_for("certificate")} == {
        "peo-certificate", "elimination-certificate", "coloring-certificate",
    }
    assert {p.name for p in passes_for("graph")} >= {
        "interference-consistency", "chordality", "interference-definitions",
    }
    assert {p.name for p in passes_for("coalescing")} == {
        "coalescing-validity", "coalescing-ledger", "coalescing-conservative",
    }
    assert {p.name for p in passes_for("allocation")} == {
        "allocation-validity", "allocation-spill", "allocation-intervals",
    }
    assert {p.name for p in passes_for("function")} >= {
        "cfg-structure", "strictness",
    }


def test_pass_run_stamps_provenance():
    ctx = AnalysisContext(obj="obj-name")
    graph = Graph()
    graph.add_edge("a", "b")
    cert = Certificate(kind="peo", graph=graph, order=["a"])  # missing b
    (p,) = [p for p in passes_for("certificate") if p.name == "peo-certificate"]
    found = p.run(cert, ctx)
    assert found and all(d.passname == "peo-certificate" for d in found)
    assert all(d.obj == "obj-name" for d in found)


# ---------------------------------------------------------------------------
# certificate verifiers
# ---------------------------------------------------------------------------

def _path_graph():
    g = Graph()
    g.add_edge("a", "b")
    g.add_edge("b", "c")
    return g


def test_verify_peo_accepts_and_rejects():
    g = _path_graph()
    assert verify_peo(g, ["a", "c", "b"]) == []
    # a PEO must be a permutation
    assert any(d.code == "CERT001" for d in verify_peo(g, ["a", "b"]))
    assert any(d.code == "CERT001" for d in verify_peo(g, ["a", "a", "b"]))
    # C4 has no PEO at all: some order position must fail
    c4 = cycle_graph(4)
    order = sorted(c4.vertices, key=str)
    assert any(d.code == "CERT002" for d in verify_peo(c4, order))


def test_verify_elimination_order():
    g = _path_graph()
    order = ["a", "c", "b"]
    assert verify_elimination_order(g, order, 2) == []
    # k=1 cannot eliminate a path
    diags = verify_elimination_order(g, order, 1)
    assert any(d.code == "CERT004" for d in diags)
    # duplicated vertex rejected up front
    diags = verify_elimination_order(g, ["a", "a", "b", "c"], 2)
    assert [d.code for d in diags] == ["CERT003"]
    # a strict prefix leaves the graph uneliminated
    diags = verify_elimination_order(g, ["a"], 2)
    assert [d.code for d in diags] == ["CERT005"]


def test_verify_coloring_cert():
    g = _path_graph()
    good = {"a": 0, "b": 1, "c": 0}
    assert verify_coloring_cert(g, good, 2) == []
    assert any(d.code == "CERT006"
               for d in verify_coloring_cert(g, {"a": 0}, 2))
    assert any(d.code == "CERT007"
               for d in verify_coloring_cert(g, {**good, "c": 5}, 2))
    assert any(d.code == "CERT008"
               for d in verify_coloring_cert(g, {**good, "b": 0}, 2))


# ---------------------------------------------------------------------------
# function-level checks (the paper's gadget programs are all clean)
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("func", [
    rotation_loop(2), rotation_loop(4), swap_loop(), phi_merge_diamond(3),
])
def test_gadget_programs_certify(func):
    diagnostics = check_function(func)
    # default severity: no findings; info carries the Theorem 1 witness
    assert filter_diagnostics(diagnostics, "warning") == []
    assert any(d.code == "LIVE004" and d.severity == "info"
               for d in diagnostics)


def test_check_function_flags_broken_phi():
    func = rotation_loop(2)
    phi = func.blocks["head"].phis[0]
    # drop one phi argument: arity no longer matches the two preds
    phi.args.pop(next(iter(phi.args)))
    diagnostics = check_function(func)
    assert any(d.code == "CFG003" for d in diagnostics)


def test_strictness_codes_and_locations():
    from repro.ir.builder import FunctionBuilder

    fb = FunctionBuilder()
    fb.block("entry").op("add", "y", "x").const("c").branch("c")
    fb.block("left").const("v")
    fb.block("right").const("w")
    fb.block("join").phi("z", left="v", right="nope").ret("z", "y")
    fb.edges(("entry", "left"), ("entry", "right"),
             ("left", "join"), ("right", "join"))
    func = fb.finish()
    found = [
        (d.code, d.where, d.message)
        for d in run_passes(func, "function", AnalysisContext())
        if d.code.startswith("STRICT")
    ]
    assert found == [
        ("STRICT001", "entry", "use of x in entry may be unassigned"),
        ("STRICT002", "join",
         "phi arg nope from right in join may be unassigned"),
    ]

# ---------------------------------------------------------------------------
# instance / coalescing / allocation checks
# ---------------------------------------------------------------------------

def _instance(seed=1, k=5):
    return pressure_instance(k, 6, rng=random.Random(seed),
                             name=f"t-s{seed}")


def test_check_instance_clean_and_k_warning():
    inst = _instance()
    assert filter_diagnostics(check_instance(inst), "warning") == []
    inst.k = 0
    assert any(d.code == "INST001" for d in check_instance(inst))


def test_check_coalescing_result_clean():
    inst = _instance()
    result = conservative_coalesce(inst.graph, inst.k, test="brute")
    assert filter_diagnostics(
        check_coalescing_result(result, k=inst.k), "warning") == []


def test_check_coalescing_catches_interfering_merge():
    g = InterferenceGraph()
    g.add_edge("x", "y")
    g.add_affinity("x", "y", 1.0)
    from repro.analysis.coalescing_check import CoalescingClaim
    from repro.graphs.interference import Coalescing

    forced = Coalescing(g)
    # bypass the guarded union to fake a buggy strategy's output: y's
    # slot joins x's class
    forced.rep[g.dense().index["y"]] = 0
    forced.groups[0] = 0b11
    claim = CoalescingClaim(graph=g, coalescing=forced, k=2)
    ctx = AnalysisContext(k=2)
    diagnostics = run_passes(claim, "coalescing", ctx)
    assert any(d.code == "COAL001" for d in diagnostics)


def test_check_allocation_clean_and_corrupted():
    from repro.allocator.chaitin import chaitin_allocate

    result = chaitin_allocate(rotation_loop(3), 5)
    assert filter_diagnostics(check_allocation(result), "warning") == []
    graph = chaitin_interference(result.function, weighted=False)
    u, v = next(
        (u, v) for u in result.assignment for v in result.assignment
        if u is not v and graph.has_edge(u, v)
    )
    result.assignment[v] = result.assignment[u]
    assert any(d.code == "ALLOC001" for d in check_allocation(result))


# ---------------------------------------------------------------------------
# budget degradation
# ---------------------------------------------------------------------------

def test_budget_exceeded_degrades_to_diagnostic():
    inst = _instance(seed=7)
    spent = Budget(max_steps=1)
    spent.check()  # consume the single step
    diagnostics = check_instance(inst, budget=spent)
    assert any(d.code == "BUDGET001" and d.severity == "warning"
               for d in diagnostics)


def test_budget_exceeded_stops_pass_run():
    func = rotation_loop(3)
    graph = chaitin_interference(func, weighted=False)
    spent = Budget(max_steps=1)
    spent.check()
    ctx = AnalysisContext(k=5, budget=spent, expect_chordal=True)
    diagnostics = run_passes((func, graph), "graph", ctx)
    budget_hits = [d for d in diagnostics if d.code == "BUDGET001"]
    assert len(budget_hits) == 1  # one warning, not one per pass


# ---------------------------------------------------------------------------
# deterministic emission order
# ---------------------------------------------------------------------------

def test_sort_diagnostics_orders_by_code_then_location():
    from repro.analysis.diagnostics import sort_diagnostics

    diags = [
        Diagnostic("LIVE004", "info", "z", obj="f", where="b"),
        Diagnostic("FLOW002", "warning", "m", obj="f", where="entry:2"),
        Diagnostic("FLOW002", "warning", "m", obj="f", where="entry:1"),
        Diagnostic("FLOW002", "warning", "a", obj="e", where="entry:1"),
    ]
    ordered = sort_diagnostics(diags)
    keys = [(d.code, d.obj, d.where) for d in ordered]
    assert keys == [
        ("FLOW002", "e", "entry:1"),
        ("FLOW002", "f", "entry:1"),
        ("FLOW002", "f", "entry:2"),
        ("LIVE004", "f", "b"),
    ]


def test_check_function_emits_in_canonical_order():
    from repro.analysis.diagnostics import sort_diagnostics

    func = rotation_loop(3)
    diagnostics = check_function(func)
    assert diagnostics == sort_diagnostics(diagnostics)
    # and the order is reproducible run to run
    again = check_function(rotation_loop(3))
    assert [d.sort_key() for d in again] == [
        d.sort_key() for d in diagnostics
    ]


def test_check_output_independent_of_hash_seed(tmp_path):
    """`repro check --json` must be byte-identical across interpreter
    hash randomization — no set-iteration order may leak out."""
    import subprocess
    import sys
    from pathlib import Path

    bug = (Path(__file__).resolve().parent.parent
           / "examples" / "llvm_bugs" / "dead_store.ll")
    outputs = set()
    for seed in ("0", "42", "1337"):
        proc = subprocess.run(
            [sys.executable, "-m", "repro.cli", "check", str(bug),
             "--severity", "info", "--json"],
            capture_output=True, text=True,
            env={"PYTHONHASHSEED": seed,
                 "PYTHONPATH": str(Path(__file__).resolve().parent.parent
                                   / "src"),
                 "PATH": "/usr/bin:/bin"},
        )
        assert proc.returncode == 1, proc.stderr
        outputs.add(proc.stdout)
    assert len(outputs) == 1


# ---------------------------------------------------------------------------
# dataflow-kind passes (FLOW codes)
# ---------------------------------------------------------------------------

def _flow_func():
    from repro.ir.cfg import Function
    from repro.ir.instructions import Instr

    f = Function("flow", "entry")
    f.add_block("entry")
    f.blocks["entry"].instrs.append(Instr("const", ("a",), ()))
    f.blocks["entry"].instrs.append(Instr("ret", (), ("a",)))
    return f


def test_flow001_unreachable_block():
    from repro.ir.instructions import Instr

    func = _flow_func()
    func.add_block("island").instrs.append(Instr("ret", (), ()))
    diagnostics = check_function(func)
    (hit,) = [d for d in diagnostics if d.code == "FLOW001"]
    assert hit.severity == "warning"
    assert hit.where == "island"


def test_flow002_dead_def_and_dead_phi():
    from repro.ir.instructions import Instr, Phi

    func = _flow_func()
    func.blocks["entry"].instrs.insert(
        1, Instr("mul", ("waste",), ("a", "a"))
    )
    diagnostics = check_function(func)
    (hit,) = [d for d in diagnostics if d.code == "FLOW002"]
    assert hit.where == "entry:1"
    assert hit.detail["var"] == "waste"
    # a φ-target nobody reads is dead too
    loop = rotation_loop(2)
    loop.blocks["head"].phis.append(
        Phi("ghost", {b: next(iter(loop.blocks["head"].phis[0].args.values()))
                      for b in loop.blocks["head"].phis[0].args})
    )
    codes = {d.code for d in check_function(loop, expect_ssa=False)}
    assert "FLOW002" in codes


def test_flow003_redundant_copy_is_info():
    from repro.ir.instructions import Instr

    func = _flow_func()
    func.blocks["entry"].instrs.insert(1, Instr("mov", ("b",), ("a",)))
    func.blocks["entry"].instrs[2] = Instr("ret", (), ("b",))
    diagnostics = check_function(func)
    (hit,) = [d for d in diagnostics if d.code == "FLOW003"]
    assert hit.severity == "info"
    assert hit.detail == {"dst": "b", "src": "a", "self": False}
    assert filter_diagnostics(diagnostics, "warning") == []


def test_flow004_hotspot_info_and_pressure_warning():
    func = rotation_loop(4)
    diagnostics = check_function(func)
    infos = [d for d in diagnostics if d.code == "FLOW004"]
    assert len(infos) == 1 and infos[0].severity == "info"
    assert infos[0].detail["maxlive"] >= 4
    # with a small k the hot blocks warn
    tight = check_function(rotation_loop(4), k=2)
    warns = [d for d in tight
             if d.code == "FLOW004" and d.severity == "warning"]
    assert warns and all(d.detail["pressure"] > 2 for d in warns)


def test_flow_passes_clean_on_gadgets():
    for func in (rotation_loop(3), swap_loop(), phi_merge_diamond(2)):
        warnings = [
            d for d in filter_diagnostics(check_function(func), "warning")
            if d.code.startswith("FLOW")
        ]
        assert warnings == []
