"""Tests for the exact coalescing branch and bound.

:func:`optimal_coalescing` searches on the dense twin; the union-find
searches it replaced stay in ``tests/reference/exact.py`` as its
oracles.  The bound certificate checks every strategy against the one
lower bound that holds for all of them: an affinity whose endpoints
interfere is never coalesced.
"""

import random
from itertools import combinations

import pytest

from repro.budget import Budget
from repro.coalescing.conservative import conservative_coalesce
from repro.coalescing.exact import optimal_coalescing
from repro.challenge.generator import pressure_instance
from repro.engine.tasks import COALESCING_STRATEGIES, STRATEGY_TABLE
from repro.frontend.corpus import corpus_functions, function_instance
from repro.graphs.generators import (
    complete_graph,
    incremental_trap_gadget,
    padded_permutation_gadget,
    random_chordal_graph,
)
from repro.graphs.greedy import is_greedy_k_colorable
from repro.graphs.coloring import is_k_colorable
from repro.graphs.interference import Coalescing, InterferenceGraph
from repro.ir.liveness import maxlive
from repro.reductions.aggressive_reduction import reduce_multiway_cut
from repro.reductions.multiway_cut import random_instance
from tests.reference.exact import (
    aggressive_coalesce_exact,
    optimal_conservative_coalescing,
)


class TestOptimalConservative:
    def test_unknown_target(self):
        with pytest.raises(ValueError):
            optimal_coalescing(InterferenceGraph(), 3, target="x")

    def test_uncolorable_raises(self):
        g = InterferenceGraph()
        for u, v in complete_graph(4).edges():
            g.add_edge(u, v)
        with pytest.raises(ValueError):
            optimal_coalescing(g, 3)

    def test_trap_gadget_optimum_is_both(self):
        # exact search must find the simultaneous coalescing that the
        # incremental heuristics miss (Figure 3 right)
        g = incremental_trap_gadget()
        r = optimal_coalescing(g, 3, target="greedy")
        assert r.num_coalesced == 2
        assert r.residual_weight == 0.0

    def test_permutation_gadget_all_coalesced(self):
        g = padded_permutation_gadget(4)
        r = optimal_coalescing(g, 6)
        assert r.num_coalesced == 4

    def test_quotient_meets_target(self):
        for seed in range(5):
            inst = pressure_instance(4, 5, margin=0, rng=random.Random(seed),
                                     copy_fraction=0.5)
            for target, check in (
                ("greedy", is_greedy_k_colorable),
                ("kcolorable", is_k_colorable),
            ):
                r = optimal_coalescing(
                    inst.graph, inst.k, target=target
                )
                assert check(r.coalescing.coalesced_graph(), inst.k)

    def test_never_worse_than_heuristics(self):
        for seed in range(5):
            inst = pressure_instance(4, 5, margin=0, rng=random.Random(seed),
                                     copy_fraction=0.5)
            exact = optimal_coalescing(inst.graph, inst.k)
            for test in ("briggs", "george", "briggs_george", "brute"):
                h = conservative_coalesce(inst.graph, inst.k, test=test)
                assert exact.residual_weight <= h.residual_weight + 1e-9

    def test_kcolorable_at_least_as_good_as_greedy(self):
        # the k-colorable target is a relaxation of the greedy target
        for seed in range(4):
            inst = pressure_instance(4, 4, margin=0, rng=random.Random(seed),
                                     copy_fraction=0.5)
            g = optimal_coalescing(inst.graph, inst.k, "greedy")
            kc = optimal_coalescing(inst.graph, inst.k, "kcolorable")
            assert kc.residual_weight <= g.residual_weight + 1e-9

    def test_matches_enumeration(self):
        for seed in range(4):
            inst = pressure_instance(3, 4, margin=0, rng=random.Random(seed),
                                     copy_fraction=0.5)
            graph = inst.graph
            if graph.num_affinities() > 6:
                continue
            exact = optimal_coalescing(graph, inst.k)
            affs = [(u, v, w) for u, v, w in graph.affinities()]
            best = float("inf")
            n = len(affs)
            for mask in range(2 ** n):
                c = Coalescing(graph)
                ok = True
                for i in range(n):
                    if mask >> i & 1:
                        u, v, _ = affs[i]
                        if c.can_union(u, v):
                            c.union(u, v)
                        else:
                            ok = False
                            break
                if not ok:
                    continue
                if is_greedy_k_colorable(c.coalesced_graph(), inst.k):
                    best = min(best, c.uncoalesced_weight())
            assert abs(exact.residual_weight - best) < 1e-9, seed

    def test_node_limit(self):
        g = InterferenceGraph(
            affinities=[(f"a{i}", f"b{i}") for i in range(12)]
        )
        with pytest.raises(RuntimeError):
            optimal_coalescing(g, 2, node_limit=2)


def _corpus_graphs():
    """``(name, graph, Maxlive)`` of every corpus function."""
    return [(func.name, function_instance(func).graph, maxlive(func))
            for _, func in corpus_functions()]


def _pressure(seed):
    inst = pressure_instance(4, 5, margin=0, rng=random.Random(seed),
                             copy_fraction=0.5)
    return inst.graph, inst.k


def _theorem2(seed):
    rng = random.Random(seed)
    return reduce_multiway_cut(
        random_instance(rng.randint(4, 7), 0.4, 3, rng)).interference


def _classes(result):
    return sorted(sorted(map(str, c)) for c in result.coalescing.classes())


def _outcome(solve, **kw):
    """``solve(**kw)``'s partition and label, or ``None`` if it finds
    the input not k-colourable."""
    try:
        result = solve(**kw)
    except ValueError:
        return None
    return _classes(result), result.strategy


def _assert_parity(graph, k, target):
    """The dense search and its oracle give the same partition, label,
    budget steps and node count."""
    steps = Budget(max_steps=10**9)
    new = _outcome(optimal_coalescing, graph=graph, k=k, target=target,
                   budget=steps)
    nodes = steps.steps
    if target == "valid":
        def oracle(budget=None, **kw):
            return aggressive_coalesce_exact(graph, **kw)
    else:
        def oracle(**kw):
            return optimal_conservative_coalescing(graph, k, target, **kw)
    oracle_steps = Budget(max_steps=10**9)
    assert _outcome(oracle, node_limit=nodes, budget=oracle_steps) == new
    if target != "valid":
        assert oracle_steps.steps == nodes
    with pytest.raises(RuntimeError, match="node limit"):
        oracle(node_limit=nodes - 1)
    with pytest.raises(RuntimeError, match="node limit"):
        optimal_coalescing(graph, k, target, node_limit=nodes - 1)


class TestOracleParity:
    """:func:`optimal_coalescing` against the union-find searches of
    ``tests/reference/exact.py``: identical partitions, labels and
    ``Budget.steps``, and a node limit one below the node count raises
    on both."""

    @pytest.mark.parametrize("target", ["valid", "greedy", "kcolorable"])
    def test_corpus_at_maxlive_and_one_below(self, target):
        checked = 0
        for name, graph, top in _corpus_graphs():
            if name == "chacha_mix":
                continue  # its search runs past any test-sized limit
            for k in (top, top - 1):
                if k >= 2:
                    _assert_parity(graph, k, target)
                    checked += 1
        assert checked >= 29  # 17 functions, 12 of them with Maxlive > 2

    @pytest.mark.parametrize("target", ["greedy", "kcolorable"])
    def test_pressure_instances(self, target):
        for seed in range(60):
            _assert_parity(*_pressure(seed), target)

    def test_theorem2_reductions(self):
        for seed in range(40):
            _assert_parity(_theorem2(seed), 0, "valid")


def _interfering_weight(graph):
    """The bound: the weight of the affinities whose endpoints
    interfere, which no valid coalescing can remove."""
    return sum(w for u, v, w in graph.affinities() if graph.has_edge(u, v))


def _random_graph(seed):
    """A random chordal graph on eight vertices with random affinities,
    an affinity sometimes doubling an interference; ``k`` is the least
    for which it is greedy-k-colourable."""
    rng = random.Random(seed)
    base = random_chordal_graph(8, 3, rng)
    graph = InterferenceGraph(base.vertices, base.edges())
    for u, v in combinations(sorted(graph.vertices), 2):
        if rng.random() < 0.3:
            graph.add_affinity(u, v, rng.choice([1.0, 2.0, 5.0]))
    k = 1
    while not is_greedy_k_colorable(graph, k):
        k += 1
    return graph, k


def _residuals(graph, k, exact=True):
    """Every coalescing strategy's residual weight by name, with the
    optimum of aggressive coalescing; the table's two exact rows only
    if ``exact``."""
    out = {"optimal aggressive":
           optimal_coalescing(graph, k, "valid").residual_weight}
    for name in COALESCING_STRATEGIES:
        if exact or not name.startswith("exact"):
            out[name] = STRATEGY_TABLE[name].run(graph, k).residual_weight
    return out


class TestBoundCertificate:
    """Every strategy leaves at least the interfering affinity weight,
    the exact optima of all three targets included."""

    def test_corpus_graphs(self):
        for name, graph, k in _corpus_graphs():
            # chacha_mix's conservative optimum is out of a test's reach
            residuals = _residuals(graph, k, exact=name != "chacha_mix")
            bound = _interfering_weight(graph)
            assert min(residuals.values()) >= bound - 1e-9, (name, residuals)
            if name == "chacha_mix":
                # Theorem 5's chordal strategy reaches the bound
                assert residuals["chordal"] == bound == 16.0

    def test_random_graphs(self):
        bounded = 0
        for seed in range(60):
            graph, k = _random_graph(seed)
            bound = _interfering_weight(graph)
            residuals = _residuals(graph, k)
            assert min(residuals.values()) >= bound - 1e-9, (seed, residuals)
            bounded += bound > 0
        assert bounded >= 30
