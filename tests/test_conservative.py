"""Tests for conservative coalescing: Briggs, George, brute force
(Section 4), and the Figure 3 phenomena."""

import random

import pytest

from repro.coalescing.conservative import conservative_coalesce
from repro.graphs.generators import (
    complete_graph,
    incremental_trap_gadget,
    padded_permutation_gadget,
    permutation_gadget,
)
from repro.graphs.greedy import is_greedy_k_colorable
from repro.graphs.interference import InterferenceGraph
from tests.reference import (
    briggs_george_test,
    briggs_test,
    brute_force_test,
    george_test,
    george_test_both,
)


def star_graph():
    """hub h adjacent to x1..x4; u, v off to the side."""
    g = InterferenceGraph()
    for i in range(1, 5):
        g.add_edge("h", f"x{i}")
    g.add_vertex("u")
    g.add_vertex("v")
    return g


class TestBriggsTest:
    def test_low_degree_merge_safe(self):
        g = star_graph()
        assert briggs_test(g, "u", "v", 2)

    def test_interfering_pair_rejected(self):
        g = InterferenceGraph(edges=[("u", "v")])
        assert not briggs_test(g, "u", "v", 4)

    def test_counts_significant_neighbors(self):
        # merged(u, v) sees k=2 neighbors of degree >= 2: unsafe
        g = InterferenceGraph(
            edges=[("u", "a"), ("v", "b"), ("a", "x"), ("b", "x")]
        )
        assert not briggs_test(g, "u", "v", 2)

    def test_common_neighbor_degree_adjusted(self):
        # w adjacent to both u and v: in the merged graph its degree
        # drops by one, below k
        g = InterferenceGraph(edges=[("u", "w"), ("v", "w"), ("w", "z")])
        # deg(w)=3 before merge; after merge 2 < 3=k: not significant
        assert briggs_test(g, "u", "v", 3)

    def test_permutation_gadget_refused(self):
        g = padded_permutation_gadget(4)
        assert not briggs_test(g, "u1", "v1", 6)


class TestGeorgeTest:
    def test_subset_neighbors_safe(self):
        # all significant neighbors of u are neighbors of v
        g = InterferenceGraph(
            edges=[("u", "a"), ("v", "a"), ("v", "b"), ("a", "x"), ("a", "y")]
        )
        assert george_test(g, "u", "v", 2)

    def test_low_degree_neighbors_ignored(self):
        g = InterferenceGraph(edges=[("u", "a"), ("v", "b")])
        # a has degree 1 < k: ignored, test passes
        assert george_test(g, "u", "v", 2)

    def test_asymmetry(self):
        g = InterferenceGraph(
            edges=[("u", "a"), ("a", "x"), ("a", "y"), ("v", "a"), ("v", "b"), ("b", "p"), ("b", "q")]
        )
        # u's significant neighbour a is a neighbour of v: u->v passes
        assert george_test(g, "u", "v", 2)
        # v's significant neighbour b is not a neighbour of u: v->u fails
        assert not george_test(g, "v", "u", 2)
        assert george_test_both(g, "u", "v", 2)

    def test_interfering_rejected(self):
        g = InterferenceGraph(edges=[("u", "v")])
        assert not george_test(g, "u", "v", 3)

    def test_permutation_gadget_refused(self):
        g = padded_permutation_gadget(4)
        assert not george_test_both(g, "u1", "v1", 6)


class TestBruteForceTest:
    def test_accepts_where_local_rules_fail(self):
        g = padded_permutation_gadget(4)
        assert brute_force_test(g, "u1", "v1", 6)
        assert not briggs_george_test(g, "u1", "v1", 6)

    def test_rejects_unsafe(self):
        g = InterferenceGraph()
        # merging u, v creates K4 out of a 3-colorable graph
        for a in ("x", "y", "z"):
            g.add_edge("u", a)
            g.add_edge("v", a)
        g.add_edge("x", "y")
        g.add_edge("y", "z")
        g.add_edge("x", "z")
        assert not brute_force_test(g, "u", "v", 3)

    def test_interfering_rejected(self):
        g = InterferenceGraph(edges=[("u", "v")])
        assert not brute_force_test(g, "u", "v", 3)


class TestConservativeCoalesce:
    def test_unknown_test_rejected(self):
        with pytest.raises(ValueError):
            conservative_coalesce(InterferenceGraph(), 2, test="nope")

    def test_uncolorable_input_rejected(self):
        g = InterferenceGraph()
        for u, v in complete_graph(4).edges():
            g.add_edge(u, v)
        with pytest.raises(ValueError):
            conservative_coalesce(g, 3)

    def test_check_input_can_be_skipped(self):
        g = InterferenceGraph()
        for u, v in complete_graph(4).edges():
            g.add_edge(u, v)
        r = conservative_coalesce(g, 3, check_input=False)
        assert r.num_coalesced == 0

    def test_quotient_stays_greedy_colorable(self):
        for seed in range(10):
            rng = random.Random(seed)
            from repro.challenge.generator import pressure_instance

            inst = pressure_instance(5, 6, margin=1, rng=rng)
            for test in ("briggs", "george", "briggs_george", "brute"):
                r = conservative_coalesce(inst.graph, inst.k, test=test)
                q = r.coalesced_graph()
                assert is_greedy_k_colorable(q, inst.k), (seed, test)

    def test_figure3_local_rules_coalesce_nothing(self):
        g = padded_permutation_gadget(4)
        for test in ("briggs", "george", "briggs_george"):
            r = conservative_coalesce(g, 6, test=test)
            assert r.num_coalesced == 0, test

    def test_figure3_brute_force_coalesces_all(self):
        g = padded_permutation_gadget(4)
        r = conservative_coalesce(g, 6, test="brute")
        assert r.num_coalesced == 4

    def test_incremental_trap_brute_refuses_both(self):
        # Figure 3 right: one-at-a-time conservative coalescing refuses
        # both affinities even with the brute-force test
        g = incremental_trap_gadget()
        r = conservative_coalesce(g, 3, test="brute")
        assert r.num_coalesced == 0

    def test_fixpoint_retries_refused_affinities(self):
        # coalescing a cheap move can unlock an expensive one: the
        # worklist must retry. Build: (a,b) heavy blocked until (c,d)
        # merges and drops a common neighbour's degree.
        g = padded_permutation_gadget(3)  # k = 4
        r = conservative_coalesce(g, 4, test="brute")
        # brute force should still find all three safe in sequence or
        # report a consistent fixpoint
        q = r.coalesced_graph()
        assert is_greedy_k_colorable(q, 4)

    def test_weights_reported(self):
        g = permutation_gadget(3)
        r = conservative_coalesce(g, 6, test="brute")
        assert r.coalesced_weight == 3.0
        assert r.residual_weight == 0.0


# ---------------------------------------------------------------------------
# the witness-keeping brute-force test against the whole-graph re-check
# ---------------------------------------------------------------------------

_LEDGER = ("conservative.rounds", "moves.attempted", "moves.coalesced",
           "moves.rejected", "moves.constrained", "queries.interference")


def _same_as_reference(graph, k, check_input=True):
    """The brute worklist gives the reference's partition, given-up
    list and ledger counters; returns its tracer."""
    from repro.obs import Tracer
    from tests.reference import conservative_coalesce as ref_coalesce

    expected_tracer, tracer = Tracer(), Tracer()
    expected = ref_coalesce(graph, k, test="brute", tracer=expected_tracer)
    result = conservative_coalesce(graph, k, test="brute",
                                   check_input=check_input, tracer=tracer)
    assert result.coalescing.as_mapping() == expected.as_mapping()
    assert result.given_up == expected.uncoalesced_affinities()
    for counter in _LEDGER:
        assert (tracer.counters.get(counter, 0)
                == expected_tracer.counters.get(counter, 0)), counter
    return tracer


class TestBruteWitnesses:
    def test_local_accept_needs_a_colorable_graph(self):
        """Briggs and George accept a merge of two isolated vertices next
        to a K4, but at k = 3 the merged graph keeps the K4 as its
        3-core: brute refuses, so its Briggs/George accept path must not
        run on a graph not known to be greedy-3-colorable."""
        g = InterferenceGraph()
        for u, v in complete_graph(4).edges():
            g.add_edge(u, v)
        g.add_vertex("a")
        g.add_vertex("b")
        g.add_affinity("a", "b")
        for test in ("briggs", "george"):
            r = conservative_coalesce(g, 3, test=test, check_input=False)
            assert r.num_coalesced == 1, test
        r = conservative_coalesce(g, 3, test="brute", check_input=False)
        assert r.num_coalesced == 0
        _same_as_reference(g, 3, check_input=False)

    def test_corpus_at_maxlive(self):
        from repro.frontend import corpus_functions
        from repro.frontend.corpus import function_instance

        for _path, func in corpus_functions():
            inst = function_instance(func)
            _same_as_reference(inst.graph, inst.k)

    def test_random_graphs_at_their_coloring_number(self):
        """Random graphs with random affinities at their colouring
        number, where merges often fold two members of a kept core: a
        witness kept past such a merge refuses a pair the whole-graph
        re-check accepts."""
        from repro.graphs.greedy import coloring_number

        refused_again = 0
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
            tracer = _same_as_reference(g, coloring_number(g))
            refused_again += tracer.counters.get(
                "brute.witness_refusals", 0) > 0
        assert refused_again >= 20

    def test_chacha_mix_peels(self):
        """chacha_mix at k = Maxlive: 32 brute tests, 28 of them
        refusals of 14 pairs; kept cores and the local accept path leave
        at most 18 whole-graph peels (one per test without them)."""
        from repro.engine.tasks import TaskSpec, build
        from repro.obs import Tracer

        built = build(TaskSpec(generator="llvm", seed=0, strategy="brute",
                               params={"path": "chacha_block.ll",
                                       "function": "chacha_mix"}))
        tracer = _same_as_reference(built.subject, built.k)
        assert tracer.counters["moves.attempted"] == 32
        assert tracer.counters["brute.peels"] <= 18
