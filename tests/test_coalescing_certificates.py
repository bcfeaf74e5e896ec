"""The coalescing and allocation certificates built once per claim.

* ``COAL004`` on the dense quotient gives the verdict and the
  ``remaining`` list that the reference elimination of
  ``tests/reference`` gives on :meth:`Coalescing.coalesced_graph`, over
  random graphs, random valid partitions and several k;
* the two ``chacha_mix`` failures (``biased`` and ``chordal``) are
  pinned;
* a claim reads its graph's dense twin (no ``DenseGraph.from_graph``
  once the graph has one) and an allocation claim costs one
  ``liveness_masks`` solve;
* the build memo derives each input's facts once per process: one
  liveness solve per input function, one peel per twin and k, one
  spill rewrite per link of an allocation's chain.
"""

import random
import sys

import pytest
from hypothesis import given, settings, strategies as st

from repro.analysis import AnalysisContext, load_all_passes
from repro.analysis.coalescing_check import CoalescingClaim, _quotient
from repro.analysis.engine_check import certify_allocation, certify_payload
from repro.analysis.registry import get_pass
from repro.engine.tasks import (
    TaskSpec,
    _allocation_payload,
    _coalesce_payload,
    build,
    execute_strategy,
)
from repro.graphs.dense import DenseGraph
from repro.graphs.generators import random_graph
from repro.graphs.greedy import coloring_number
from repro.graphs.interference import Coalescing, InterferenceGraph
from repro.intervals.linear_scan import linear_scan_allocate
from repro.ir import liveness
from tests import corpus_tasks, reference as ref

load_all_passes()


def _random_claim(seed):
    """A random graph and a random valid partition of it."""
    rng = random.Random(seed)
    base = random_graph(rng.randint(1, 18), rng.uniform(0.05, 0.7), rng)
    graph = InterferenceGraph()
    for v in base.vertices:
        graph.add_vertex(v)
    for u, v in base.edges():
        graph.add_edge(u, v)
    coalescing = Coalescing(graph)
    names = list(graph.vertices)
    merges = rng.uniform(0.0, 1.5) * len(names)
    for _ in range(int(merges)):
        u, v = rng.sample(names, 2) if len(names) > 1 else (names[0],) * 2
        if coalescing.can_union(u, v):
            coalescing.union(u, v)
    col = coloring_number(base)
    ks = sorted({1, 2, max(1, col - 1), max(1, col), col + 1})
    return graph, coalescing, ks


def _reference_coal004(graph, coalescing, k):
    """``(severity, detail)`` of the COAL004 findings, by the reference
    elimination on the dict quotient."""
    if not ref.greedy_elimination_order(graph, k)[1]:
        return [("info", {"k": k})]
    quotient = coalescing.coalesced_graph()
    order, success = ref.greedy_elimination_order(quotient, k)
    if success:
        return []
    removed = set(order)
    leftover = sorted(str(v) for v in quotient.vertices if v not in removed)
    return [("error", {"k": k, "remaining": leftover[:32]})]


def _coal004(graph, coalescing, k):
    claim = CoalescingClaim(graph=graph, coalescing=coalescing, k=k,
                            conservative=True)
    found = get_pass("coalescing-conservative").run(claim, AnalysisContext())
    return [(d.severity, d.detail) for d in found]


@settings(max_examples=80, deadline=None)
@given(st.integers(0, 10**6))
def test_dense_coal004_matches_reference(seed):
    graph, coalescing, ks = _random_claim(seed)
    quotient = _quotient(coalescing).to_graph()
    expected = coalescing.coalesced_graph()
    assert set(quotient.vertices) == set(expected.vertices)
    assert {frozenset(e) for e in quotient.edges()} \
        == {frozenset(e) for e in expected.edges()}
    for k in ks:
        assert _coal004(graph, coalescing, k) \
            == _reference_coal004(graph, coalescing, k), k


def test_random_claims_cover_every_verdict():
    """The generator behind the property reaches vacuous, certified and
    broken (non-conservative) partitions."""
    verdicts = set()
    for seed in range(200):
        graph, coalescing, ks = _random_claim(seed)
        for k in ks:
            found = _coal004(graph, coalescing, k)
            verdicts.add(found[0][0] if found else "certified")
            assert found == _reference_coal004(graph, coalescing, k)
    assert verdicts == {"info", "error", "certified"}


def _chacha(strategy):
    return TaskSpec(generator="llvm", seed=0, k=0, strategy=strategy,
                    params={"path": "chacha_block.ll",
                            "function": "chacha_mix"})


@pytest.mark.parametrize("strategy, remain", [("biased", 45),
                                              ("chordal", 82)])
def test_chacha_mix_failures_pinned(strategy, remain):
    """The two known COAL004 failures: the quotient keeps a core of 45
    (``biased``) or 82 (``chordal``) vertices at k = Maxlive = 35."""
    spec = _chacha(strategy)
    instance = build(spec).source
    result = execute_strategy(instance.graph, instance.k, strategy)
    payload = _coalesce_payload(instance, result)
    found = certify_payload(instance, payload, strategy, instance.k)
    assert [d.code for d in found] == ["COAL004"]
    (diag,) = found
    assert diag.severity == "error"
    assert f"({remain} vertices of degree >= 35 remain)" in diag.message
    # the payload's pairs rebuild the partition the checker saw
    coalescing = Coalescing(instance.graph)
    for u, v in payload["coalesced_pairs"]:
        coalescing.union(u, v)
    assert [("error", diag.detail)] \
        == _reference_coal004(instance.graph, coalescing, 35)
    assert len(diag.detail["remaining"]) == 32


def test_coalescing_claim_reads_the_graph_twin(monkeypatch):
    """The verifier builds no rows of its own: the strategy's (or one
    ``Graph.dense()`` call's) twin serves every pass."""
    original = DenseGraph.from_graph.__func__
    built = []

    def counting(cls, graph):
        built.append(graph)
        return original(cls, graph)

    monkeypatch.setattr(DenseGraph, "from_graph", classmethod(counting))
    for strategy in ("briggs", "aggressive"):
        spec = _chacha(strategy)
        instance = build(spec).source
        result = execute_strategy(instance.graph, instance.k, strategy)
        payload = _coalesce_payload(instance, result)
        instance.graph.dense()
        built.clear()
        assert certify_payload(instance, payload, strategy,
                               instance.k) == []
        assert built == [], strategy


def test_one_liveness_solve_per_allocation_claim(monkeypatch):
    """ALLOC001–003 and INTV001–003 share one solve (four before)."""
    original = liveness.liveness_masks
    calls = []

    def counting(func, *args, **kwargs):
        calls.append(func)
        return original(func, *args, **kwargs)

    for name, module in list(sys.modules.items()):
        if name.startswith("repro") \
                and getattr(module, "liveness_masks", None) is original:
            monkeypatch.setattr(module, "liveness_masks", counting)
    for k in (0, -1):
        spec = _chacha("linear-scan")
        built = build(spec)
        func, maxlive_k = built.source, built.k
        result = linear_scan_allocate(func, maxlive_k + k)
        payload = _allocation_payload(result)
        calls.clear()
        found = certify_allocation(func, result, payload)
        assert not [d for d in found if d.severity == "error"]
        assert len(calls) == 1, k


def test_facts_derived_once_per_verified_corpus_pass(monkeypatch):
    """A cold verified pass over the corpus task list solves liveness
    once per memoised input function and peels each dense twin once per
    k; a warm pass does neither (each allocation task re-solved its
    input's liveness, and each twin was peeled 14 times per pass)."""
    import repro.graphs.dense as dense
    from repro.engine import run_task
    from repro.engine.tasks import _build_memo

    specs = list(corpus_tasks().values())
    original = liveness.liveness_masks
    solved = []

    def counting(func, *args, **kwargs):
        solved.append(func)
        return original(func, *args, **kwargs)

    for name, module in list(sys.modules.items()):
        if name.startswith("repro") \
                and getattr(module, "liveness_masks", None) is original:
            monkeypatch.setattr(module, "liveness_masks", counting)
    real_peel = dense._peel
    peeled = []

    def peeling(graph, k, tracer):
        peeled.append((graph, k))
        return real_peel(graph, k, tracer)

    monkeypatch.setattr(dense, "_peel", peeling)

    def inputs():
        return {id(entry.source) for key, entry in _build_memo.items()
                if key[0] == "function"}

    def twin_peels():
        return [(id(graph), k) for graph, k in peeled
                if graph.peels is not None]

    _build_memo.clear()
    for spec in specs:
        assert run_task(spec, verify=True)["status"] == "ok"
    functions = inputs()
    assert len(functions) == 18
    assert sorted(id(f) for f in solved if id(f) in functions) \
        == sorted(functions)
    twins = twin_peels()
    assert len(twins) == len(set(twins))
    assert len({graph for graph, _ in twins}) == 18
    solved.clear()
    peeled.clear()
    for spec in specs:
        assert run_task(spec, verify=True)["status"] == "ok"
    assert inputs() == functions
    assert [f for f in solved if id(f) in functions] == []
    assert twin_peels() == []


def test_spill_rewrites_once_per_verified_corpus_pass(monkeypatch):
    """A cold verified pass over the corpus allocation tasks rewrites
    each chain link once (43 links: a spilling allocation and its
    verifier's replay walk the same ``CodeFacts.spilled`` chain); a
    warm pass rewrites nothing and builds no intervals."""
    from repro.allocator.spill import spill_everywhere
    from repro.engine import run_task
    from repro.engine.tasks import ALLOCATION_STRATEGIES, _build_memo
    from repro.intervals import model

    specs = [spec for spec in corpus_tasks().values()
             if spec.strategy in ALLOCATION_STRATEGIES]
    assert len(specs) == 62
    calls = {"spill": [], "intervals": []}

    def counting(name, original):
        def wrapper(func, *args, **kwargs):
            calls[name].append(func)
            return original(func, *args, **kwargs)
        return wrapper

    for name, original in (("spill", spill_everywhere),
                           ("intervals", model.build_intervals)):
        attr = original.__name__
        for module_name, module in list(sys.modules.items()):
            if module_name.startswith("repro") \
                    and getattr(module, attr, None) is original:
                monkeypatch.setattr(module, attr, counting(name, original))

    def links():
        return [path for key, entry in _build_memo.items()
                if key[0] == "function" for path in entry.extra._links]

    _build_memo.clear()
    for spec in specs:
        assert run_task(spec, verify=True)["verification"]["status"] \
            == "certified"
    assert len(calls["spill"]) == len(links()) == 43
    calls["spill"].clear()
    calls["intervals"].clear()
    for spec in specs:
        assert run_task(spec, verify=True)["verification"]["status"] \
            == "certified"
    assert calls == {"spill": [], "intervals": []}
    assert len(links()) == 43


def test_coalescing_ledger_walks_the_partition_once(monkeypatch):
    """COAL005's three aggregates come from one walk of the graph's
    affinities over the slot partition (three walks of
    ``Coalescing.uncoalesced_affinities`` once, then one)."""
    instance = build(_chacha("briggs")).source
    result = execute_strategy(instance.graph, instance.k, "briggs")
    original = InterferenceGraph.affinity_items
    walks = []

    def counting(self):
        walks.append(self)
        return original(self)

    monkeypatch.setattr(InterferenceGraph, "affinity_items", counting)
    monkeypatch.setattr(Coalescing, "uncoalesced_affinities", None)
    claim = CoalescingClaim(
        graph=instance.graph, coalescing=result.coalescing, k=instance.k,
        coalesced=result.coalesced,
        expected={"residual_weight": result.residual_weight,
                  "coalesced_weight": result.coalesced_weight,
                  "coalesced": result.num_coalesced},
    )
    ledger = get_pass("coalescing-ledger")
    assert list(ledger.fn(claim, AnalysisContext(k=instance.k))) == []
    assert walks == [instance.graph]


def test_dense_builds_per_verified_corpus_pass(monkeypatch):
    """A cold verified pass over the corpus task list converts each of
    its 18 graphs to rows once, and a warm one converts none (342 on
    both while every strategy and verifier pass converted its own
    copy)."""
    from repro.engine import run_task
    from repro.engine.tasks import _build_memo

    specs = list(corpus_tasks().values())
    original = DenseGraph.from_graph.__func__
    built = []

    def counting(cls, graph):
        built.append(graph)
        return original(cls, graph)

    monkeypatch.setattr(DenseGraph, "from_graph", classmethod(counting))
    _build_memo.clear()
    for spec in specs:
        assert run_task(spec, verify=True)["status"] == "ok"
    assert len(built) == len(set(map(id, built))) == 18
    built.clear()
    for spec in specs:
        assert run_task(spec, verify=True)["status"] == "ok"
    assert built == []


def test_verified_pass_has_no_per_record_partition_setup(monkeypatch):
    """The verifier's fixed work per record stays gone: certifying the
    corpus coalescing records constructs one ``Coalescing`` each, on
    the twin's slots (the payload's partition), reads each twin's
    name-to-slot map from the twin, and a verified pass filters the
    pass registry once per kind."""
    import repro.analysis.registry as registry
    from repro.analysis.engine_check import verify_record
    from repro.engine import run_task
    from repro.engine.tasks import COALESCING_STRATEGIES

    specs = list(corpus_tasks().values())
    coalescing = [s for s in specs if s.strategy in COALESCING_STRATEGIES]
    records = [run_task(spec) for spec in coalescing]
    made, kept = [], []
    real_init, real_kept = Coalescing.__init__, DenseGraph.kept

    def constructing(self, graph):
        made.append(graph)
        real_init(self, graph)

    def keeping(self, name, build):
        kept.append((self, name))
        return real_kept(self, name, build)

    monkeypatch.setattr(Coalescing, "__init__", constructing)
    monkeypatch.setattr(DenseGraph, "kept", keeping)
    for spec, record in zip(coalescing, records):
        assert verify_record(spec, record)["status"] in (
            "certified", "failed")
    assert len(made) == len(coalescing)
    slot_maps = [twin for twin, name in kept if name == "slot-of-name"]
    assert len(slot_maps) == len(coalescing)
    assert len(set(map(id, slot_maps))) == 18

    filtered = []

    class Registry(dict):
        def values(self):
            filtered.append(1)
            return super().values()

    monkeypatch.setattr(registry, "_REGISTRY", Registry(registry._REGISTRY))
    monkeypatch.setattr(registry, "_BY_KIND", {})
    for spec in specs:
        assert run_task(spec, verify=True)["status"] == "ok"
    assert len(filtered) == 2  # the coalescing and allocation kinds


def test_unmerged_partition_reads_the_twin_peel(monkeypatch):
    """``briggs`` coalesces nothing on ``chacha_mix``: COAL004 reads the
    input twin and the peel it keeps, with no copy and no new peel, and
    still re-certifies the rounds on the twin's rows; a partition that
    merges a pair peels its own quotient."""
    import repro.analysis.coalescing_check as coalescing_check
    import repro.graphs.dense as dense

    instance = build(_chacha("briggs")).source
    result = execute_strategy(instance.graph, instance.k, "briggs")
    assert result.num_coalesced == 0
    twin = instance.graph.dense()
    assert instance.k in twin.peels
    peeled, copied, witnessed = [], [], []
    real_peel, real_copy = dense._peel, DenseGraph.copy
    real_witness = coalescing_check.verify_elimination_rounds

    def peeling(graph, k, tracer):
        peeled.append(graph)
        return real_peel(graph, k, tracer)

    def copying(graph):
        copied.append(graph)
        return real_copy(graph)

    def witnessing(graph, rounds, k, ctx):
        witnessed.append((graph, rounds))
        return real_witness(graph, rounds, k, ctx)

    monkeypatch.setattr(dense, "_peel", peeling)
    monkeypatch.setattr(DenseGraph, "copy", copying)
    monkeypatch.setattr(coalescing_check, "verify_elimination_rounds",
                        witnessing)
    payload = _coalesce_payload(instance, result)
    assert certify_payload(instance, payload, "briggs", instance.k) == []
    assert peeled == [] and copied == []
    assert witnessed == [(twin, twin.peels[instance.k][0])]

    coalescing = Coalescing(instance.graph)
    u, v, _ = next(a for a in instance.graph.affinities()
                   if not instance.graph.has_edge(a[0], a[1]))
    coalescing.union(u, v)
    witnessed.clear()
    assert _coal004(instance.graph, coalescing, instance.k) \
        == _reference_coal004(instance.graph, coalescing, instance.k)
    assert len(peeled) == len(copied) == 1 and peeled[0] is not twin


def test_validity_charges_the_budget_once_per_walk(monkeypatch):
    """The validity pass charges each of its two walks' step totals at
    once: two calls per claim (one per class and walk before), the
    same steps."""
    instance = build(_chacha("aggressive")).source
    result = execute_strategy(instance.graph, instance.k, "aggressive")
    charges = []
    original = AnalysisContext.check_budget

    def charging(self, steps=1):
        charges.append(steps)
        return original(self, steps)

    monkeypatch.setattr(AnalysisContext, "check_budget", charging)
    claim = CoalescingClaim(graph=instance.graph,
                            coalescing=result.coalescing, k=instance.k)
    validity = get_pass("coalescing-validity")
    assert list(validity.fn(claim, AnalysisContext(k=instance.k))) == []
    assert charges == [len(instance.graph)] * 2
