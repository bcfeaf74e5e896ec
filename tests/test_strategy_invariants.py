"""Strategy-agnostic invariants, fuzzed over random instances.

Every coalescing strategy in the library, whatever its internals, must
produce: a valid partition (no interference inside a class), a
consistent ledger (coalesced + given_up = all affinities), and — for
the colourability-preserving ones — a greedy-k-colorable quotient.
"""

import random

import pytest
from hypothesis import example, given, settings, strategies as st

from repro.allocator.irc import irc_coalescing_result
from repro.challenge.generator import pressure_instance
from repro.coalescing import (
    aggressive_coalesce,
    biased_coloring_result,
    conservative_coalesce,
    optimal_coalescing,
    optimistic_coalesce,
)
from repro.coalescing.biased import biased_greedy_coloring
from repro.graphs.greedy import is_greedy_k_colorable
from repro.graphs.interference import InterferenceGraph
from tests import CORPUS_STRATEGIES

CONSERVATIVE = [
    "briggs",
    "george",
    "george_extended",
    "briggs_george",
    "brute",
]


def random_instance(seed: int):
    rng = random.Random(seed)
    style = rng.random()
    if style < 0.6:
        k = rng.randint(3, 7)
        inst = pressure_instance(
            k,
            rng.randint(3, 8),
            margin=rng.randint(0, min(2, k - 1)),
            copy_fraction=rng.uniform(0.3, 0.9),
            rng=rng,
        )
        return inst.graph, inst.k
    # random sparse graph + random affinities, k = col(G) + slack
    from repro.graphs.generators import random_graph
    from repro.graphs.greedy import coloring_number

    base = random_graph(rng.randint(4, 14), rng.uniform(0.1, 0.4), rng)
    g = InterferenceGraph()
    for v in base.vertices:
        g.add_vertex(v)
    for u, v in base.edges():
        g.add_edge(u, v)
    names = sorted(g.vertices)
    for _ in range(rng.randint(0, 8)):
        a, b = rng.sample(names, 2)
        if not g.has_affinity(a, b):
            g.add_affinity(a, b, rng.choice([1.0, 2.0, 10.0]))
    k = max(1, coloring_number(base)) + rng.randint(0, 2)
    return g, k


def check_ledger(graph, result):
    total = graph.num_affinities()
    assert len(result.coalesced) + len(result.given_up) == total
    for u, v, _ in result.coalesced:
        assert result.coalescing.same_class(u, v)
    for u, v, _ in result.given_up:
        assert not result.coalescing.same_class(u, v)
    assert (
        abs(
            result.coalesced_weight
            + result.residual_weight
            - graph.total_affinity_weight()
        )
        < 1e-9
    )


@settings(max_examples=25, deadline=None)
@given(st.integers(0, 10_000))
def test_aggressive_invariants(seed):
    graph, _ = random_instance(seed)
    result = aggressive_coalesce(graph)
    check_ledger(graph, result)
    result.coalesced_graph()  # raises on an invalid partition


@settings(max_examples=25, deadline=None)
@given(st.integers(0, 10_000), st.sampled_from(CONSERVATIVE))
# the extended George rule once counted a blocker's merged neighbour
# with the old degree and broke greedy-k-colourability on these seeds
@example(125, "george_extended")
@example(178, "george_extended")
@example(220, "george_extended")
@example(398, "george_extended")
@example(472, "george_extended")
def test_conservative_invariants(seed, test):
    graph, k = random_instance(seed)
    if not is_greedy_k_colorable(graph, k):
        return
    result = conservative_coalesce(graph, k, test=test)
    check_ledger(graph, result)
    assert is_greedy_k_colorable(result.coalesced_graph(), k)


def test_conservative_quotients_sweep():
    """Every conservative rule keeps the quotient greedy-k-colourable
    on each of seeds 0–2999."""
    failures = []
    for seed in range(3000):
        graph, k = random_instance(seed)
        if not is_greedy_k_colorable(graph, k):
            continue
        for test in CONSERVATIVE:
            result = conservative_coalesce(graph, k, test=test)
            if not is_greedy_k_colorable(result.coalesced_graph(), k):
                failures.append((seed, test))
    assert failures == []


def test_george_extended_counts_the_merged_vertex():
    """Seed 125, minimised: merging u into v (k = 3) gives a K4.  The
    blocker t has only two significant neighbours before the merge,
    but the merged vertex of degree 3 is a third one."""
    g = InterferenceGraph(edges=[
        ("v", "a"), ("v", "b"), ("u", "t"),
        ("t", "a"), ("t", "b"), ("a", "b"),
    ])
    g.add_affinity("u", "v")
    assert is_greedy_k_colorable(g, 3)
    assert not is_greedy_k_colorable(g.merged("u", "v"), 3)
    result = conservative_coalesce(g, 3, test="george_extended")
    assert result.coalesced == []
    assert is_greedy_k_colorable(result.coalesced_graph(), 3)


@settings(max_examples=25, deadline=None)
@given(st.integers(0, 10_000))
def test_optimistic_invariants(seed):
    graph, k = random_instance(seed)
    if not is_greedy_k_colorable(graph, k):
        return
    result = optimistic_coalesce(graph, k)
    check_ledger(graph, result)
    assert is_greedy_k_colorable(result.coalesced_graph(), k)


@settings(max_examples=25, deadline=None)
@given(st.integers(0, 10_000))
def test_irc_invariants(seed):
    graph, k = random_instance(seed)
    result = irc_coalescing_result(graph, k)
    check_ledger(graph, result)
    result.coalesced_graph()


@settings(max_examples=25, deadline=None)
@given(st.integers(0, 10_000))
def test_biased_invariants(seed):
    graph, k = random_instance(seed)
    if not is_greedy_k_colorable(graph, k):
        return
    result = biased_coloring_result(graph, k)
    check_ledger(graph, result)
    # Biased colouring merges same-coloured affinity neighbours, so its
    # own colouring witnesses that the quotient is properly k-colorable.
    # (The quotient need NOT be *greedy*-k-colorable: merging two
    # same-coloured vertices can raise degrees past the elimination
    # threshold — only colourability itself is preserved.)
    coloring = biased_greedy_coloring(graph, k)
    assert coloring is not None
    for u, v, _ in result.coalesced:
        assert coloring[u] == coloring[v]
    quotient = result.coalesced_graph()
    mapping = result.coalescing.as_mapping()
    classes = {}
    for v in graph.vertices:
        rep = mapping[v]
        assert classes.setdefault(rep, coloring[v]) == coloring[v]
    for a, b in quotient.edges():
        assert classes[a] != classes[b]
    assert all(0 <= c < k for c in classes.values())


@settings(max_examples=20, deadline=None)
@given(st.integers(0, 10_000))
@example(4914)  # heuristic aggressive leaves 22 here, brute leaves 20
def test_aggressive_dominates_all(seed):
    """Optimal aggressive coalescing is a lower bound on residual weight
    for every colourability-respecting strategy.  Only the *exact*
    optimum bounds every valid partition; the greedy heuristic
    ``aggressive_coalesce`` can leave more than a conservative test."""
    graph, k = random_instance(seed)
    if not is_greedy_k_colorable(graph, k):
        return
    floor = optimal_coalescing(graph, k, "valid").residual_weight
    for test in ("briggs", "brute"):
        r = conservative_coalesce(graph, k, test=test)
        assert r.residual_weight >= floor - 1e-9
    assert optimistic_coalesce(graph, k).residual_weight >= floor - 1e-9


def _count_affinity_walks(monkeypatch):
    """Record every ``InterferenceGraph.affinities()`` walk from now on."""
    walks = []
    original = InterferenceGraph.affinities

    def counting(self):
        walks.append(self)
        return original(self)

    monkeypatch.setattr(InterferenceGraph, "affinities", counting)
    return walks


def _tree_instance():
    """A tree (chordal, greedy-2-colourable) whose affinities include an
    interfering pair, a transitive triangle and a separable pair."""
    graph = InterferenceGraph()
    for u, v in [("a", "b"), ("b", "c"), ("c", "d"), ("d", "e"), ("b", "f")]:
        graph.add_edge(u, v)
    for u, v, w in [("a", "b", 4.0), ("a", "c", 1.0), ("c", "e", 2.0),
                    ("d", "f", 3.0), ("a", "e", 1.0)]:
        graph.add_affinity(u, v, w)
    return graph, 2


def _read_ledger(result):
    return (result.coalesced, result.given_up, result.num_coalesced,
            result.coalesced_weight, result.residual_weight)


@pytest.mark.parametrize(
    "strategy", CORPUS_STRATEGIES + ("exact", "exact-kcolorable"))
def test_ledger_is_one_walk_of_the_partition(monkeypatch, strategy):
    """Every strategy's ledger is what its partition alone yields, in
    ``graph.affinities()`` order, and building it walks them once."""
    from repro.coalescing.base import CoalescingResult
    from repro.engine.tasks import execute_strategy

    graph, k = _tree_instance()
    result = execute_strategy(graph, k, strategy)
    walks = _count_affinity_walks(monkeypatch)
    rebuilt = CoalescingResult(graph=graph, coalescing=result.coalescing,
                               strategy=result.strategy)
    assert _read_ledger(rebuilt) == _read_ledger(result)
    assert walks == [graph]


def test_conservative_ledger_is_one_walk_after_its_rounds(monkeypatch):
    """Once its rounds end, ``conservative_coalesce`` walks the
    affinities once for the whole ledger (five walks before: two
    hand-built lists and one per aggregate)."""
    from repro.coalescing import conservative

    graph, k = _tree_instance()
    walks = _count_affinity_walks(monkeypatch)
    after_rounds = []
    rounds = conservative._coalesce_rounds

    def marked(*args):
        rounds(*args)
        after_rounds.append(len(walks))

    monkeypatch.setattr(conservative, "_coalesce_rounds", marked)
    _read_ledger(conservative.conservative_coalesce(graph, k))
    assert len(walks) - after_rounds[0] == 1
