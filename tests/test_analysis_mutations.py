"""Mutation corpus: every corruption is caught with its documented code.

Each entry takes a healthy artifact (program, graph, certificate,
coalescing claim, allocation, engine record), applies one targeted
corruption, and asserts the analysis passes report *at least* the
expected diagnostic code.  This is the regression net for the
diagnostic catalog in ``docs/ANALYSIS.md``: a code that stops firing on
its canonical trigger breaks a test here by name.
"""

import json
import random

import pytest

from repro.analysis import AnalysisContext, load_all_passes
from repro.analysis.coalescing_check import CoalescingClaim
from repro.analysis.runner import (
    check_allocation,
    check_coalescing_result,
    check_function,
    run_passes,
)
from repro.challenge.generator import pressure_instance
from repro.coalescing.conservative import conservative_coalesce
from repro.graphs.interference import Coalescing, InterferenceGraph
from repro.ir.cfg import Function
from tests.reference.gadget_programs import phi_merge_diamond, rotation_loop
from repro.ir.instructions import Instr
from repro.ir.interference import chaitin_interference
from tests import reference as ref

load_all_passes()


def _codes(diagnostics):
    return {d.code for d in diagnostics}


# ---------------------------------------------------------------------------
# IR mutations (CFG / strictness / SSA)
# ---------------------------------------------------------------------------

def test_cfg001_unmirrored_edge():
    func = rotation_loop(2)
    func._succs["entry"].append("exit")  # preds of exit not updated
    assert "CFG001" in _codes(check_function(func))


def test_cfg002_missing_entry():
    func = rotation_loop(2)
    func.entry = "nowhere"
    assert "CFG002" in _codes(check_function(func))


def test_cfg003_phi_arity_mismatch():
    func = rotation_loop(2)
    phi = func.blocks["head"].phis[0]
    phi.args.pop(next(iter(phi.args)))
    assert "CFG003" in _codes(check_function(func))


def test_strict001_use_before_def():
    func = Function("strictless")
    func.add_block("entry")
    func.entry = "entry"
    func.blocks["entry"].instrs.append(Instr("ret", (), ("ghost",)))
    assert "STRICT001" in _codes(check_function(func))


def test_ssa001_double_definition():
    func = rotation_loop(2)
    block = func.blocks["entry"]
    block.instrs.append(Instr("const", ("x1.0",), ()))  # redefinition
    diagnostics = check_function(func, expect_ssa=True)
    assert "SSA001" in _codes(diagnostics)


def test_ssa002_use_not_dominated():
    func = phi_merge_diamond(2)
    # use a variable defined in one branch arm inside the other arm
    left, right = func.blocks["left"], func.blocks["right"]
    defined = sorted(left.defs(), key=str)[0]
    right.instrs.append(Instr("use", (), (defined,)))
    diagnostics = check_function(func, expect_ssa=True)
    assert _codes(diagnostics) & {"SSA002", "STRICT001"}


# ---------------------------------------------------------------------------
# graph mutations (liveness / interference / chordality)
# ---------------------------------------------------------------------------

def _func_and_graph():
    func = rotation_loop(3)
    return func, chaitin_interference(func, weighted=False)


def test_live001_missing_edge():
    func, graph = _func_and_graph()
    u, v = next(iter(graph.edges()))
    graph.remove_edge(u, v)
    ctx = AnalysisContext(obj=func.name)
    diagnostics = run_passes((func, graph), "graph", ctx)
    assert "LIVE001" in _codes(diagnostics)


def test_live002_phantom_edge():
    func, graph = _func_and_graph()
    a, b = sorted(
        (
            (u, v)
            for u in graph.vertices for v in graph.vertices
            if u is not v and not graph.has_edge(u, v)
        ),
        key=lambda pair: (str(pair[0]), str(pair[1])),
    )[0]
    graph.add_edge(a, b)
    ctx = AnalysisContext(obj=func.name)
    diagnostics = run_passes((func, graph), "graph", ctx)
    assert "LIVE002" in _codes(diagnostics)


def test_live003_chordality_violation():
    # a 4-cycle passed off as a strict-SSA interference graph
    from repro.graphs.generators import cycle_graph

    func = rotation_loop(2)
    c4 = InterferenceGraph()
    for u, v in cycle_graph(4).edges():
        c4.add_edge(u, v)
    from repro.analysis import passes_for

    ctx = AnalysisContext(obj=func.name, expect_chordal=True)
    (chordality,) = [p for p in passes_for("graph") if p.name == "chordality"]
    diagnostics = chordality.run((func, c4), ctx)
    assert "LIVE003" in _codes(diagnostics)


# ---------------------------------------------------------------------------
# certificate mutations — covered in test_analysis.py (CERT001-008);
# here: the registry-level dispatch path on a corrupted witness
# ---------------------------------------------------------------------------

def test_cert_dispatch_catches_shuffled_peo():
    from repro.analysis.certificates import Certificate
    from repro.graphs.chordal import perfect_elimination_ordering

    _, graph = _func_and_graph()
    order = perfect_elimination_ordering(graph)
    assert order is not None
    bad = list(reversed(order))
    ctx = AnalysisContext()
    cert = Certificate(kind="peo", graph=graph, order=bad)
    diagnostics = run_passes(cert, "certificate", ctx)
    # a reversed PEO of a non-complete chordal graph is typically broken;
    # if it happens to stay a PEO, there is nothing to catch — guard it
    if diagnostics:
        assert _codes(diagnostics) <= {"CERT002"}


# ---------------------------------------------------------------------------
# coalescing mutations
# ---------------------------------------------------------------------------

def _claim(seed=3, k=5):
    inst = pressure_instance(k, 6, rng=random.Random(seed), name="m")
    result = conservative_coalesce(inst.graph, k, test="brute")
    return inst, result


def test_coal001_interfering_class():
    g = InterferenceGraph()
    g.add_edge("x", "y")
    g.add_affinity("x", "y", 2.0)
    forced = Coalescing(g)
    # bypass the guarded union: y's slot joins x's class
    forced.rep[g.dense().index["y"]] = 0
    forced.groups[0] = 0b11
    claim = CoalescingClaim(graph=g, coalescing=forced, k=2)
    diagnostics = run_passes(claim, "coalescing", AnalysisContext(k=2))
    assert "COAL001" in _codes(diagnostics)


def test_coal002_partition_broken():
    g = InterferenceGraph()
    g.add_edge("x", "y")

    class Ghostly(Coalescing):
        __slots__ = ()

        def classes(self):
            # a member that is not a vertex
            return [frozenset({"x", "ghost"}), frozenset({"y"})]

    claim = CoalescingClaim(graph=g, coalescing=Ghostly(g), k=2)
    diagnostics = run_passes(claim, "coalescing", AnalysisContext(k=2))
    assert "COAL002" in _codes(diagnostics)


def test_coal003_ledger_mismatch():
    inst, result = _claim()
    # claim a pair as coalesced that the partition keeps separate
    separated = next(
        (u, v)
        for u in inst.graph.vertices for v in inst.graph.vertices
        if u is not v and not result.coalescing.same_class(u, v)
    )
    claim = CoalescingClaim(
        graph=inst.graph, coalescing=result.coalescing, k=inst.k,
        coalesced=[(separated[0], separated[1], 1.0)],
    )
    diagnostics = run_passes(claim, "coalescing", AnalysisContext(k=inst.k))
    assert "COAL003" in _codes(diagnostics)


def test_coal004_nonconservative_quotient():
    # complete graph K3 with k=2: any merge claim is non-conservative,
    # but here even the *input* fails, so the contract is vacuous (info)
    g = InterferenceGraph()
    g.add_edge("a", "b")
    g.add_edge("b", "c")
    g.add_edge("a", "c")
    c = Coalescing(g)
    claim = CoalescingClaim(graph=g, coalescing=c, k=2, conservative=True)
    diagnostics = run_passes(claim, "coalescing", AnalysisContext(k=2))
    vacuous = [d for d in diagnostics if d.code == "COAL004"]
    assert vacuous and all(d.severity == "info" for d in vacuous)


def test_coal004_conservative_contract_violated():
    # path a-b, c isolated, affinity a--c; k=2: input IS greedy-2-colorable.
    # Merging a and c (legal: no edge) yields {a,c} adjacent to b — still
    # colorable; instead fake a claim whose quotient has a K3 with k=2.
    g = InterferenceGraph()
    g.add_edge("a", "b")
    g.add_edge("b", "c")
    g.add_edge("c", "d")
    g.add_edge("d", "a")  # C4: greedy-2-colorable? every vertex degree 2
    c = Coalescing(g)
    claim = CoalescingClaim(graph=g, coalescing=c, k=2, conservative=True)
    diagnostics = run_passes(claim, "coalescing", AnalysisContext(k=2))
    # C4 is not greedy-2-colorable (all degrees = 2), so vacuous info again
    vacuous = [d for d in diagnostics if d.code == "COAL004"]
    assert vacuous and all(d.severity == "info" for d in vacuous)


def test_coal005_aggregate_mismatch():
    inst, result = _claim()
    claim = CoalescingClaim(
        graph=inst.graph, coalescing=result.coalescing, k=inst.k,
        expected={"coalesced": result.num_coalesced + 7},
    )
    diagnostics = run_passes(claim, "coalescing", AnalysisContext(k=inst.k))
    assert "COAL005" in _codes(diagnostics)


# ---------------------------------------------------------------------------
# allocation mutations
# ---------------------------------------------------------------------------

def _checked(result):
    """``check_allocation(result)``, after asserting that the row-mask
    ALLOC001–003 and INTV passes report exactly what the per-edge
    oracles in ``tests/reference`` report (as sorted lists)."""
    def key(d):
        return (d.code, d.severity, d.where, d.message,
                json.dumps(d.detail, sort_keys=True, default=str))

    diagnostics = check_allocation(result)
    mine = [d for d in diagnostics
            if d.passname in ("allocation-validity", "allocation-intervals")]
    ctx = AnalysisContext(k=result.k)
    oracle = (list(ref.check_allocation_validity(result, ctx))
              + list(ref.check_interval_allocation(result, ctx)))
    assert sorted(map(key, mine)) == sorted(map(key, oracle))
    return diagnostics


def _allocation():
    from repro.allocator.chaitin import chaitin_allocate

    return chaitin_allocate(rotation_loop(3), 5)


def test_alloc001_shared_register():
    result = _allocation()
    graph = chaitin_interference(result.function, weighted=False)
    u, v = next(
        (u, v) for u in result.assignment for v in result.assignment
        if u is not v and graph.has_edge(u, v)
    )
    result.assignment[v] = result.assignment[u]
    assert "ALLOC001" in _codes(_checked(result))


def test_alloc002_register_out_of_range():
    result = _allocation()
    v = sorted(result.assignment, key=str)[0]
    result.assignment[v] = result.k + 3
    assert "ALLOC002" in _codes(_checked(result))


def test_alloc003_unassigned_variable():
    result = _allocation()
    v = sorted(result.assignment, key=str)[0]
    del result.assignment[v]
    assert "ALLOC003" in _codes(_checked(result))


def test_alloc004_spill_bookkeeping():
    result = _allocation()
    # claim a live variable was spilled away
    v = sorted(result.assignment, key=str)[0]
    result.spilled.append(v)
    assert "ALLOC004" in _codes(_checked(result))


def _linear_scan(k_offset=0):
    """Classic linear scan of ``loops.ll``/``gcd`` at k = Maxlive + offset
    (Maxlive 3: no spill at offset 0, three memory slots at -1)."""
    from repro.frontend.corpus import corpus_dir, parse_path
    from repro.frontend.lower import lower_module
    from repro.intervals.linear_scan import linear_scan_allocate
    from repro.ir.liveness import maxlive

    (func,) = [f for f in lower_module(parse_path(corpus_dir() / "loops.ll"))
               if f.name == "gcd"]
    return linear_scan_allocate(func, maxlive(func) + k_offset)


def _interfering_pair(result):
    from repro.allocator.spill import is_memory_slot

    graph = chaitin_interference(result.function, weighted=False)
    return next((u, v) for u, v in graph.edges()
                if not is_memory_slot(u) and not is_memory_slot(v))


def test_intv002_shared_register_on_intersecting_intervals():
    from repro.intervals.model import build_intervals

    result = _linear_scan()
    assert result.interval_variant == "classic" and not result.spilled
    assert not {"INTV001", "INTV002"} & _codes(_checked(result))
    intervals = build_intervals(result.function).intervals
    u, v = _interfering_pair(result)
    assert intervals[u].intersects(intervals[v])
    result.assignment[v] = result.assignment[u]
    codes = _codes(_checked(result))
    assert "INTV002" in codes and "ALLOC001" in codes


def test_intv001_interval_missing_an_interference(monkeypatch):
    import repro.intervals.model as model
    from repro.intervals.model import IntervalSet, LiveInterval

    result = _linear_scan()
    u, _ = _interfering_pair(result)
    real = model.build_intervals

    def emptied(func, *args, **kwargs):
        iset = real(func, *args, **kwargs)
        intervals = dict(iset.intervals)
        intervals[u] = LiveInterval(var=u, ranges=())
        return IntervalSet(points=iset.points, intervals=intervals)

    monkeypatch.setattr(model, "build_intervals", emptied)
    hits = [d for d in _checked(result) if d.code == "INTV001"]
    assert hits and all(u in d.detail["edge"] for d in hits)


def test_intv001_steps_are_charged_once_before_its_findings(monkeypatch):
    """INTV001's walk is a fact of the code: its steps, one per non-slot
    row bit, reach the budget in one charge, before any finding, and
    the same charge comes from a second context over the same facts."""
    import repro.intervals.model as model
    from repro.allocator.spill import is_memory_slot
    from repro.analysis.coalescing_check import code_facts
    from repro.analysis.interval_check import check_interval_allocation
    from repro.budget import Budget
    from repro.intervals.linear_scan import CodeFacts
    from repro.intervals.model import IntervalSet, LiveInterval
    from repro.ir.interference import interference_rows

    result = _linear_scan(-1)  # memory slots among the rows
    u, _ = _interfering_pair(result)
    real = model.build_intervals

    def emptied(func, *args, **kwargs):
        iset = real(func, *args, **kwargs)
        intervals = dict(iset.intervals)
        intervals[u] = LiveInterval(var=u, ranges=())
        return IntervalSet(points=iset.points, intervals=intervals)

    monkeypatch.setattr(model, "build_intervals", emptied)
    variables, rows = interference_rows(result.function)
    nonslot = sum(1 << i for i, v in enumerate(variables)
                  if not is_memory_slot(v))
    walked = sum((rows[i] & nonslot).bit_count()
                 for i in range(len(rows)) if nonslot >> i & 1)
    assert walked and nonslot != (1 << len(variables)) - 1

    class Recording(Budget):
        def check(self, steps=1):
            events.append(("charge", steps))
            super().check(steps)

    facts = CodeFacts(result.function)
    for _ in range(2):
        events = []
        ctx = AnalysisContext(k=result.k, budget=Recording())
        code_facts(result.function, ctx, known=facts)
        for diag in check_interval_allocation(result, ctx):
            events.append((diag.code,))
        hits = [i for i, event in enumerate(events) if event == ("INTV001",)]
        assert hits and hits == list(range(1, len(hits) + 1))
        assert events[0] == ("charge", walked)


def test_allocation_validity_charges_its_row_walk_once():
    """ALLOC001-003 charge the walk of the non-slot rows, one step per
    row bit, in one budget call before any finding (one call per
    non-empty row before), with the same step count."""
    from dataclasses import replace

    from repro.allocator.spill import is_memory_slot
    from repro.analysis.coalescing_check import check_allocation_validity
    from repro.budget import Budget
    from repro.ir.interference import interference_rows

    result = _linear_scan(-1)  # memory slots among the rows
    u, v = _interfering_pair(result)
    assignment = dict(result.assignment)
    assignment[v] = assignment[u]
    clashing = replace(result, assignment=assignment)
    variables, rows = interference_rows(result.function)
    nonslot = sum(1 << i for i, var in enumerate(variables)
                  if not is_memory_slot(var))
    walked = sum((rows[i] & nonslot).bit_count()
                 for i in range(len(rows)) if nonslot >> i & 1)
    nonempty = sum(1 for i in range(len(rows))
                   if nonslot >> i & 1 and rows[i] & nonslot)
    assert nonempty > 1

    class Recording(Budget):
        def check(self, steps=1):
            events.append(("charge", steps))
            super().check(steps)

    for subject in (result, clashing):
        events = []
        ctx = AnalysisContext(k=result.k, budget=Recording())
        for diag in check_allocation_validity(subject, ctx):
            events.append((diag.code,))
        assert events[0] == ("charge", walked)
        assert [e for e in events if e[0] == "charge"] == [events[0]]
    assert ("ALLOC001",) in events


def test_memory_slots_skipped_by_validity_and_flagged_in_registers():
    from repro.allocator.spill import is_memory_slot

    result = _linear_scan(-1)
    graph = chaitin_interference(result.function, weighted=False)
    slot_edges = [(u, v) for u, v in graph.edges()
                  if is_memory_slot(u) or is_memory_slot(v)]
    assert slot_edges
    # the slots interfere but hold no register: no ALLOC003 for them
    assert not any(
        c.startswith("ALLOC") for c in _codes(_checked(result)))
    # a slot given its neighbour's register is ALLOC004, never ALLOC001
    slot, other = next(
        (u, v) if is_memory_slot(u) else (v, u) for u, v in slot_edges
        if not (is_memory_slot(u) and is_memory_slot(v))
        and (v if is_memory_slot(u) else u) in result.assignment
    )
    result.assignment[slot] = result.assignment[other]
    diagnostics = _checked(result)
    assert [d.detail["vertex"] for d in diagnostics
            if d.code == "ALLOC004"] == [slot]
    assert not {"ALLOC001", "ALLOC002", "ALLOC003"} & _codes(diagnostics)


# ---------------------------------------------------------------------------
# engine record mutations
# ---------------------------------------------------------------------------

def _ok_record():
    from repro.engine.tasks import TaskSpec, run_task

    spec = TaskSpec(generator="pressure", seed=11, k=5, strategy="brute")
    return spec, run_task(spec)


def test_eng001_foreign_vertex_in_payload():
    from repro.analysis.engine_check import verify_record

    spec, record = _ok_record()
    record["payload"]["coalesced_pairs"].append(["zz9", "zz10"])
    outcome = verify_record(spec, record)
    assert outcome["status"] == "failed"
    assert "ENG001" in {d["code"] for d in outcome["diagnostics"]}


def test_eng001_vertex_count_mismatch():
    from repro.analysis.engine_check import verify_record

    spec, record = _ok_record()
    record["payload"]["vertices"] += 1
    outcome = verify_record(spec, record)
    assert outcome["status"] == "failed"


def _verify_both_ways(field, tamper):
    """Tamper one payload field; verify it regenerated and handed."""
    from repro.analysis.engine_check import verify_record
    from repro.engine.tasks import _coalesce_payload, build, execute_strategy

    spec, record = _ok_record()
    record["payload"][field] = tamper(record["payload"][field])
    built = build(spec)
    instance = built.source
    result = execute_strategy(instance.graph, spec.k, spec.strategy)
    handed = {"status": "ok", "payload": _coalesce_payload(instance, result)}
    handed["payload"][field] = record["payload"][field]
    return [verify_record(spec, record),
            verify_record(spec, handed, built=built)]


@pytest.mark.parametrize("field,tamper", [
    ("vertices", lambda n: n + 1),
    ("edges", lambda n: n + 1),
    ("affinities", lambda n: n - 1),
    ("instance", lambda name: name + "-x"),
])
def test_eng001_instance_shape_field_mismatch(field, tamper):
    for outcome in _verify_both_ways(field, tamper):
        assert outcome["status"] == "failed"
        assert [d["detail"]["field"] for d in outcome["diagnostics"]
                if d["code"] == "ENG001"] == [field]


def test_coal005_engine_ledger_drift():
    from repro.analysis.engine_check import verify_record

    spec, record = _ok_record()
    record["payload"]["coalesced"] += 1
    outcome = verify_record(spec, record)
    assert outcome["status"] == "failed"
    assert "COAL005" in {d["code"] for d in outcome["diagnostics"]}


def test_healthy_record_certifies():
    from repro.analysis.engine_check import verify_record

    spec, record = _ok_record()
    outcome = verify_record(spec, record)
    assert outcome["status"] == "certified"
    assert outcome["diagnostics"] == []


# ---------------------------------------------------------------------------
# dataflow diagnostics (FLOW codes) on the seeded-bug .ll corpus
# ---------------------------------------------------------------------------

def _check_ll(name, **kw):
    from pathlib import Path

    from repro.frontend.corpus import parse_path
    from repro.frontend.lower import lower_module

    path = (Path(__file__).resolve().parent.parent
            / "examples" / "llvm_bugs" / name)
    module = parse_path(path)
    diagnostics = []
    for func in lower_module(module):
        diagnostics.extend(check_function(func, **kw))
    return str(path), diagnostics


def test_flow001_fires_on_seeded_unreachable():
    path, diagnostics = _check_ll("unreachable.ll")
    (hit,) = [d for d in diagnostics if d.code == "FLOW001"]
    assert hit.severity == "warning"
    assert hit.file == path
    assert hit.line == 12  # the island: label line


def test_flow002_fires_on_seeded_dead_store():
    path, diagnostics = _check_ll("dead_store.ll")
    hits = [d for d in diagnostics if d.code == "FLOW002"]
    assert {d.detail["var"] for d in hits} == {"waste", "unused"}
    assert all(d.file == path for d in hits)
    assert sorted(d.line for d in hits) == [10, 15]


def test_flow003_fires_on_seeded_redundant_copy():
    path, diagnostics = _check_ll("redundant_copy.ll")
    hits = [d for d in diagnostics if d.code == "FLOW003"]
    assert {(d.detail["dst"], d.detail["src"]) for d in hits} == {
        ("alias", "x"), ("stable", "alias"),
    }
    assert sorted(d.line for d in hits) == [10, 11]
    assert all(d.severity == "info" for d in hits)


def test_flow004_fires_on_seeded_pressure():
    path, diagnostics = _check_ll("pressure.ll", k=3)
    warns = [d for d in diagnostics
             if d.code == "FLOW004" and d.severity == "warning"]
    assert warns, "k=3 < Maxlive must warn"
    assert all(d.detail["pressure"] > 3 for d in warns)
    assert all(d.file == path and d.line > 0 for d in warns)
    # without a k, only the hotspot info remains
    _, plain = _check_ll("pressure.ll")
    assert [d.severity for d in plain if d.code == "FLOW004"] == ["info"]


def test_flow_codes_quiet_on_clean_llvm_corpus():
    """The shipped examples/llvm corpus is FLOW-clean at warning level
    (the mutation corpus lives in examples/llvm_bugs for a reason)."""
    from pathlib import Path

    from repro.frontend.corpus import parse_path
    from repro.frontend.lower import lower_module

    corpus = (Path(__file__).resolve().parent.parent
              / "examples" / "llvm")
    checked = 0
    for path in sorted(corpus.glob("*.ll")):
        for func in lower_module(parse_path(path)):
            diagnostics = check_function(func)
            bad = [d for d in diagnostics
                   if d.code.startswith("FLOW")
                   and d.severity in ("error", "warning")]
            assert bad == [], (path.name, [str(d) for d in bad])
            checked += 1
    assert checked >= 15
