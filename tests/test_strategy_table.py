"""The strategy table and the one build path from spec to certified
record.

``repro.engine.tasks.STRATEGY_TABLE`` is the only place that says how a
strategy runs and what it promises; the CLI, serving's admission and
the verifier read it.  ``build`` is the only way from a spec to the
input its strategy runs on: ``run_task`` runs the table's runner on it,
and ``verify_record`` without a ``Built`` calls the same builder (and,
for an allocation, the same runner).
"""

import itertools
import random

import pytest

from repro.analysis.engine_check import verify_record
from repro.analysis.runner import check_coalescing_result
from repro.cli import build_parser
from repro.coalescing.exact import optimal_coalescing
from repro.engine.tasks import (
    ALLOCATION_STRATEGIES,
    COALESCING_STRATEGIES,
    GREEDY,
    STRATEGIES,
    STRATEGY_TABLE,
    VALID,
    TaskSpec,
    run_task,
)
from repro.graphs.interference import InterferenceGraph
from repro.serve.protocol import HEAVY, LIGHT, request_class


def _seeded_graph(seed):
    """7 vertices; each pair an edge (35%), a weight-1 affinity (25%),
    or nothing."""
    rng = random.Random(seed)
    graph = InterferenceGraph()
    for v in range(7):
        graph.add_vertex(v)
    for u, v in itertools.combinations(range(7), 2):
        r = rng.random()
        if r < 0.35:
            graph.add_edge(u, v)
        elif r < 0.6:
            graph.add_affinity(u, v, 1.0)
    return graph


def test_exact_aggressive_gets_the_validity_contract():
    """Optimal aggressive coalescing promises only a valid coalescing;
    under its old label it was checked as conservative, a false COAL004
    on 14 of these 200 graphs (seed 2 among them)."""
    for seed in range(200):
        result = optimal_coalescing(_seeded_graph(seed), 2, "valid")
        found = check_coalescing_result(result, k=2)
        assert "COAL004" not in {d.code for d in found}, seed


def _small_graph():
    graph = InterferenceGraph()
    for u, v in [("a", "b"), ("b", "c"), ("c", "d")]:
        graph.add_edge(u, v)
    for u, v, w in [("a", "c", 3.0), ("b", "d", 2.0), ("a", "d", 1.0)]:
        graph.add_affinity(u, v, w)
    return graph


@pytest.mark.parametrize("name", COALESCING_STRATEGIES)
def test_every_producer_labels_its_result_with_its_table_name(name):
    result = STRATEGY_TABLE[name].run(_small_graph(), 2)
    assert result.strategy == name


def test_producers_outside_the_table_use_table_labels():
    from repro.allocator.irc import irc_coalescing_result

    graph = _small_graph()
    assert optimal_coalescing(graph, 2, "valid").strategy == "aggressive"
    assert irc_coalescing_result(graph, 2, george_any=True).strategy \
        == "irc"


def test_derived_views():
    """Every view of the table agrees with the table, and the contract,
    admission class and CLI choices are what they were before the table
    (only exact aggressive coalescing's contract moved)."""
    assert STRATEGIES == tuple(STRATEGY_TABLE)
    assert ALLOCATION_STRATEGIES == ("linear-scan", "second-chance")
    assert {STRATEGY_TABLE[n].variant for n in ALLOCATION_STRATEGIES} \
        == {"classic", "second-chance"}
    assert {n for n in COALESCING_STRATEGIES
            if STRATEGY_TABLE[n].contract == VALID} \
        == {"aggressive", "exact-kcolorable", "interval"}
    assert all(STRATEGY_TABLE[n].contract in (GREEDY, VALID)
               for n in COALESCING_STRATEGIES)
    # an allocator needs code, so its spec takes the llvm generator
    heavy = {n for n in STRATEGIES
             if request_class(TaskSpec(
                 generator="llvm" if n in ALLOCATION_STRATEGIES
                 else "pressure", seed=0, strategy=n)) == HEAVY}
    assert heavy == {"exact", "exact-kcolorable", "call"}
    assert request_class(TaskSpec(generator="sleep", seed=0)) == HEAVY
    assert request_class(TaskSpec(generator="pressure", seed=0)) == LIGHT

    def choices(command, option):
        sub = next(a for a in build_parser()._actions
                   if a.dest == "command").choices[command]
        return set(next(a for a in sub._actions
                        if a.dest == option).choices)

    light = set(COALESCING_STRATEGIES) - {"exact", "exact-kcolorable"}
    for command in ("coalesce", "report", "solve"):
        assert choices(command, "strategy") == light
    assert choices("client", "strategy") == set(COALESCING_STRATEGIES)
    assert choices("allocate", "allocator") \
        == {"chaitin", "ssa", "linear-scan", "second-chance"}


def _build_path_specs():
    """Every table strategy except ``call``: coalescing at Maxlive on
    ``loops.ll:gcd`` (the exact solvers on a small pressure instance),
    allocators at Maxlive and Maxlive - 1."""
    from repro.engine.tasks import build

    gcd = {"path": "loops.ll", "function": "gcd"}
    specs = []
    for name in STRATEGIES:
        if STRATEGY_TABLE[name].run is None:
            continue
        if STRATEGY_TABLE[name].heavy:
            specs.append(TaskSpec(generator="pressure", seed=1, k=4,
                                  strategy=name, params={"rounds": 4}))
        elif name in ALLOCATION_STRATEGIES:
            maxlive = build(TaskSpec(generator="llvm", seed=0, strategy=name,
                                     params=gcd)).k
            specs.extend(TaskSpec(generator="llvm", seed=0, k=k,
                                  strategy=name, params=gcd)
                         for k in (maxlive, maxlive - 1))
        else:
            specs.append(TaskSpec(generator="llvm", seed=0, strategy=name,
                                  params=gcd))
    return specs


@pytest.mark.parametrize("spec", _build_path_specs(),
                         ids=lambda s: f"{s.strategy}-k{s.k}")
def test_handed_and_built_verification_agree(spec):
    record = run_task(spec, verify=True)
    assert record["status"] == "ok"
    handed = record["verification"]
    assert handed["status"] == "certified", handed
    assert verify_record(spec, record) == handed
    assert verify_record(spec, {"status": "ok",
                                "payload": record["payload"]}) == handed

