"""Tests for optimistic coalescing and exact de-coalescing (Section 5)."""

import random

import pytest

from repro.coalescing.optimistic import decoalesce_minimum, optimistic_coalesce
from repro.coalescing.conservative import conservative_coalesce
from repro.challenge.generator import pressure_instance
from repro.graphs.generators import (
    complete_graph,
    incremental_trap_gadget,
    padded_permutation_gadget,
    permutation_gadget,
)
from repro.graphs.greedy import is_greedy_k_colorable
from repro.graphs.interference import Coalescing, InterferenceGraph
from tests import reference as ref


class TestOptimisticCoalesce:
    def test_quotient_always_greedy_colorable(self):
        for seed in range(8):
            inst = pressure_instance(5, 6, margin=0, rng=random.Random(seed))
            r = optimistic_coalesce(inst.graph, inst.k)
            assert is_greedy_k_colorable(r.coalesced_graph(), inst.k), seed

    def test_beats_or_ties_local_rules(self):
        for seed in range(8):
            inst = pressure_instance(5, 8, margin=0, rng=random.Random(seed))
            opt = optimistic_coalesce(inst.graph, inst.k)
            briggs = conservative_coalesce(inst.graph, inst.k, test="briggs")
            assert opt.residual_weight <= briggs.residual_weight + 1e-9, seed

    def test_trap_gadget_solved(self):
        # the incremental trap defeats one-at-a-time conservatism but
        # not optimistic coalescing (both moves coalesced together)
        g = incremental_trap_gadget()
        r = optimistic_coalesce(g, 3)
        assert r.num_coalesced == 2

    def test_permutation_gadget_solved(self):
        g = padded_permutation_gadget(4)
        r = optimistic_coalesce(g, 6)
        assert r.num_coalesced == 4

    def test_uncolorable_input_raises(self):
        g = InterferenceGraph()
        for u, v in complete_graph(4).edges():
            g.add_edge(u, v)
        g.add_affinity("k0", "extra")
        with pytest.raises(ValueError):
            optimistic_coalesce(g, 3)

    def test_no_affinities(self):
        g = InterferenceGraph(edges=[("a", "b")])
        r = optimistic_coalesce(g, 2)
        assert r.num_coalesced == 0
        assert r.residual_weight == 0.0

    def test_recoalesce_improves_or_ties(self):
        for seed in range(6):
            inst = pressure_instance(4, 8, margin=0, rng=random.Random(seed))
            with_rc = optimistic_coalesce(inst.graph, inst.k, recoalesce=True)
            without = optimistic_coalesce(inst.graph, inst.k, recoalesce=False)
            assert with_rc.residual_weight <= without.residual_weight + 1e-9


class TestDecoalesceMinimum:
    def test_zero_when_already_colorable(self):
        g = permutation_gadget(3)
        assert decoalesce_minimum(g, 6) == []

    def test_trap_needs_zero(self):
        g = incremental_trap_gadget()
        assert decoalesce_minimum(g, 3) == []

    def test_forced_decoalescing(self):
        # u-v affinity whose merge creates K4 at k=3: must give it up
        g = InterferenceGraph()
        g.add_edge("u", "x")
        g.add_edge("u", "y")
        g.add_edge("v", "y")
        g.add_edge("v", "z")
        g.add_edge("x", "y")
        g.add_edge("y", "z")
        g.add_edge("x", "z")
        g.add_affinity("u", "v")
        assert is_greedy_k_colorable(g, 3)
        merged = g.merged("u", "v")
        assert not is_greedy_k_colorable(merged, 3)
        result = decoalesce_minimum(g, 3)
        assert result in ([("u", "v")], [("v", "u")])

    def test_none_when_base_not_colorable(self):
        g = InterferenceGraph()
        for u, v in complete_graph(4).edges():
            g.add_edge(u, v)
        g.add_affinity("k0", "ext")
        assert decoalesce_minimum(g, 3) is None

    def test_merge_can_make_an_uncolorable_graph_colorable(self):
        """De-coalescing is not monotone: the 4-cycle a-w-b-x is not
        greedy-2-colorable, but merging a and b leaves a tree."""
        g = InterferenceGraph(
            edges=[("a", "w"), ("w", "b"), ("b", "x"), ("x", "a")],
            affinities=[("a", "b")])
        assert not is_greedy_k_colorable(g, 2)
        assert decoalesce_minimum(g, 2) == []
        assert optimistic_coalesce(g, 2).num_coalesced == 1

    def test_conflicting_affinities_rejected(self):
        g = InterferenceGraph(edges=[("a", "b")], affinities=[("a", "b")])
        with pytest.raises(ValueError):
            decoalesce_minimum(g, 2)

    def test_minimality_against_enumeration(self):
        # the iterative deepening must find the same optimum as a naive
        # full enumeration
        from itertools import combinations

        for seed in range(5):
            inst = pressure_instance(3, 5, margin=0, rng=random.Random(seed),
                                     copy_fraction=0.6)
            g = inst.graph
            # keep instances tiny
            if g.num_affinities() > 6:
                continue
            best = decoalesce_minimum(g, inst.k)
            if best is None:
                continue
            affs = [(u, v) for u, v, _ in g.affinities()]
            sizes = []
            for r in range(len(affs) + 1):
                for subset in combinations(range(len(affs)), r):
                    c = Coalescing(g)
                    for i, (u, v) in enumerate(affs):
                        if i not in subset and c.can_union(u, v):
                            c.union(u, v)
                    if is_greedy_k_colorable(c.coalesced_graph(), inst.k):
                        sizes.append(r)
                        break
                if sizes:
                    break
            assert sizes and sizes[0] == len(best), seed


# ---------------------------------------------------------------------------
# the single-DenseGraph loop against the dict-quotient reference
# ---------------------------------------------------------------------------

def _same_partition(graph, k):
    """Both loops raise alike or give the same partition, class
    representatives included."""
    try:
        expected = ref.optimistic_coalesce(graph, k)
    except ValueError:
        with pytest.raises(ValueError):
            optimistic_coalesce(graph, k)
        return False
    result = optimistic_coalesce(graph, k)
    assert result.coalescing.as_mapping() == expected.as_mapping()
    return True


class TestAgainstReference:
    def test_corpus(self):
        from repro.frontend import corpus_functions
        from repro.frontend.corpus import function_instance

        checked = 0
        for _path, func in corpus_functions():
            inst = function_instance(func)
            for k in (inst.k, inst.k + 1):
                checked += _same_partition(inst.graph, k)
        assert checked > 20

    @pytest.mark.parametrize("seed", range(12))
    def test_pressure_instances(self, seed):
        rng = random.Random(seed)
        k = rng.randint(3, 6)
        inst = pressure_instance(k, rng.randint(4, 9),
                                 margin=rng.randint(0, 1), rng=rng)
        assert _same_partition(inst.graph, inst.k)

    @pytest.mark.parametrize("seed,k,num_vars", [
        (0, 4, 12), (3, 5, 24), (7, 6, 40),
        # these three dissolve classes and re-coalesce some of them
        (12, 5, 12), (26, 6, 24), (26, 8, 24),
    ])
    def test_program_instances(self, seed, k, num_vars):
        from repro.challenge.generator import program_instance

        inst = program_instance(seed, k, num_vars=num_vars)
        assert _same_partition(inst.graph, inst.k)

    def test_random_graphs_that_dissolve(self):
        """Random graphs at their colouring number with random
        affinities; vertex names mix str and int in shuffled order, so
        slot order is not name order."""
        from repro.graphs.greedy import coloring_number
        from repro.obs import Tracer

        dissolving = 0
        for seed in range(60):
            rng = random.Random(seed)
            n = rng.randint(8, 30)
            names = [f"v{i}" if i % 3 else i for i in range(n)]
            rng.shuffle(names)
            g = InterferenceGraph(vertices=names)
            p = rng.uniform(0.1, 0.4)
            for i in range(n):
                for j in range(i + 1, n):
                    if rng.random() < p:
                        g.add_edge(names[i], names[j])
            for _ in range(rng.randint(n // 2, 2 * n)):
                a, b = rng.sample(names, 2)
                if not g.has_edge(a, b):
                    g.add_affinity(a, b, rng.choice([0.5, 1.0, 2.0, 3.0]))
            k = coloring_number(g)
            assert _same_partition(g, k), seed
            tracer = Tracer()
            optimistic_coalesce(g, k, tracer=tracer)
            counters = tracer.report()["counters"]
            dissolving += counters.get("optimistic.dissolved_classes", 0) > 0
        assert dissolving >= 20

    def test_without_recoalescing(self):
        for seed in range(6):
            inst = pressure_instance(5, 8, rng=random.Random(seed))
            expected = ref.optimistic_coalesce(inst.graph, inst.k,
                                               recoalesce=False)
            result = optimistic_coalesce(inst.graph, inst.k,
                                         recoalesce=False)
            assert result.coalescing.as_mapping() == expected.as_mapping()

    def test_chacha_mix_keeps_its_degree_mask(self, monkeypatch):
        """Re-coalescing chacha_mix at k = Maxlive builds the degree-≥-k
        mask once and carries it over each accepted merge: at most one
        ``high_degree_mask`` call per merge, plus one, with the
        reference's partition and the counters of a per-test rebuild."""
        from repro.engine.tasks import TaskSpec, build
        from repro.graphs.dense import DenseGraph
        from repro.obs import Tracer

        built = build(TaskSpec(generator="llvm", seed=0,
                               strategy="optimistic",
                               params={"path": "chacha_block.ll",
                                       "function": "chacha_mix"}))
        calls = []
        original = DenseGraph.high_degree_mask

        def counting(dense, k):
            calls.append(k)
            return original(dense, k)

        monkeypatch.setattr(DenseGraph, "high_degree_mask", counting)
        tracer = Tracer()
        result = optimistic_coalesce(built.subject, built.k, tracer=tracer)
        counters = {name: count for name, count in tracer.counters.items()
                    if name.startswith(("brute.", "optimistic."))}
        assert counters == {
            "brute.peels": 3, "brute.region_peels": 13,
            "optimistic.dissolved_classes": 15,
            "optimistic.dissolved_pairs": 15,
            "optimistic.recoalesce_attempted": 15,
            "optimistic.recoalesced": 1, "optimistic.witness_checks": 16,
        }
        assert 0 < len(calls) <= counters["optimistic.recoalesced"] + 1
        expected = ref.optimistic_coalesce(built.subject, built.k)
        assert result.coalescing.as_mapping() == expected.as_mapping()
