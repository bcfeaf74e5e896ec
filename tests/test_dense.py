"""Dense bitset kernels: equivalence with the dict-of-set references.

The dense layer (:mod:`repro.graphs.dense`) promises *identical
observable results* to the dict-of-set references in
``tests/reference/`` — same MCS orders, same colours, same conservative
verdicts, same coalescing partitions — at strictly less kernel work.
These tests pin both promises, plus the snapshot harness that records
the dense kernels' work.
"""

import json
import random

import pytest

from repro.graphs import dense as dn
from repro.graphs.chordal import maximum_cardinality_search
from repro.graphs.coloring import greedy_coloring
from repro.graphs.dense import DenseGraph
from repro.graphs.generators import random_chordal_graph, random_graph
from repro.graphs.graph import Graph
from repro.graphs.greedy import (
    coloring_number,
    greedy_elimination_order,
    is_greedy_k_colorable,
)
from repro.graphs.interference import InterferenceGraph
from repro.coalescing.conservative import conservative_coalesce
from repro.obs import EDGES_SCANNED, KERNEL_WORK_COUNTERS, WORDS_MERGED, Tracer
from tests import reference as ref


def fuzz_graphs(count=40, max_n=18):
    """A deterministic corpus of random graphs of varied density."""
    out = []
    for seed in range(count):
        rng = random.Random(seed)
        out.append(random_graph(rng.randint(0, max_n),
                                rng.uniform(0.05, 0.9), rng))
    return out


class TestDenseGraph:
    def test_roundtrip_is_lossless(self):
        for g in fuzz_graphs():
            assert DenseGraph.from_graph(g).to_graph() == g

    def test_interning_follows_insertion_order(self):
        g = Graph(vertices=["c", "a", "b"])
        d = DenseGraph.from_graph(g)
        assert d.names == ["c", "a", "b"]
        assert d.index == {"c": 0, "a": 1, "b": 2}

    def test_duplicate_names_rejected(self):
        with pytest.raises(ValueError):
            DenseGraph(["x", "x"])

    def test_basic_queries(self):
        g = Graph(vertices=["a", "b", "c"])
        g.add_edge("a", "b")
        d = DenseGraph.from_graph(g)
        assert d.n == 3 and d.num_alive() == 3 and d.num_edges() == 1
        assert d.has_edge(0, 1) and not d.has_edge(0, 2)
        assert d.deg == [1, 1, 0]
        d.add_edge(1, 2)
        assert d.num_edges() == 2 and d.deg == [1, 2, 1]
        d.add_edge(1, 2)  # idempotent
        assert d.num_edges() == 2
        with pytest.raises(ValueError):
            d.add_edge(1, 1)

    def test_high_degree_mask(self):
        g = Graph(vertices=["a", "b", "c", "d"])
        for u in ("b", "c", "d"):
            g.add_edge("a", u)
        d = DenseGraph.from_graph(g)
        assert d.high_degree_mask(2) == 0b0001
        assert d.high_degree_mask(1) == 0b1111
        assert d.high_degree_mask(4) == 0

    def test_merge_semantics_and_common_mask(self):
        #   a - x - b,  a - y,  b - y : merge a,b => common = {x, y}
        g = Graph(vertices=["a", "b", "x", "y"])
        g.add_edge("a", "x")
        g.add_edge("b", "x")
        g.add_edge("a", "y")
        g.add_edge("b", "y")
        d = DenseGraph.from_graph(g)
        common = d.merge_in_place(0, 1)
        assert common == (1 << 2) | (1 << 3)
        assert d.num_alive() == 3 and not d.alive >> 1 & 1
        assert d.deg[0] == 2 and d.deg[1] == 0 and d.adj[1] == 0
        assert d.to_graph() == g.merged("a", "b")

    def test_merge_errors(self):
        g = Graph(vertices=["a", "b", "c"])
        g.add_edge("a", "b")
        d = DenseGraph.from_graph(g)
        with pytest.raises(ValueError):
            d.merge_in_place(0, 1)  # interfering
        d.merge_in_place(0, 2)
        with pytest.raises(KeyError):
            d.merge_in_place(1, 2)  # 2 is dead

    def test_copy_is_independent(self):
        g = random_graph(8, 0.4, seed=1)
        d = DenseGraph.from_graph(g)
        c = d.copy()
        c.merge_in_place(0, next(i for i in range(1, 8) if not d.has_edge(0, i)))
        assert d.to_graph() == g
        assert c.names is d.names  # interning is shared

    @staticmethod
    def _random_group(d, rng):
        """Pairwise non-adjacent live vertices, in random order."""
        live = [i for i in range(d.n) if d.alive >> i & 1]
        rng.shuffle(live)
        group = []
        for i in live:
            if all(not d.has_edge(i, j) for j in group):
                group.append(i)
            if len(group) == rng.randint(2, 4):
                break
        return group

    def test_merge_group_matches_successive_merges(self):
        for seed, g in enumerate(fuzz_graphs(60)):
            rng = random.Random(seed)
            d = DenseGraph.from_graph(g)
            pairwise = d.copy()
            for _ in range(3):
                group = self._random_group(d, rng)
                if len(group) < 2:
                    break
                d.merge_group(group)
                for j in group[1:]:
                    pairwise.merge_in_place(group[0], j)
                assert d.adj == pairwise.adj and d.deg == pairwise.deg
                assert d.alive == pairwise.alive
                assert all(d.deg[i] == d.adj[i].bit_count()
                           for i in range(d.n))

    def test_add_vertex_then_merge_group_is_a_fresh_last_slot(self):
        """The merged vertex re-enters last, as Graph.merge_in_place
        puts it: same vertex order, same adjacency."""
        for seed, g in enumerate(fuzz_graphs(60)):
            rng = random.Random(seed)
            d = DenseGraph.from_graph(g)
            shared = d.copy()
            h = g.copy()
            for _ in range(3):
                group = self._random_group(d, rng)
                if len(group) < 2:
                    break
                names = [d.names[i] for i in group]
                merged = d.add_vertex(names[0])
                d.merge_group([merged, *group])
                assert merged == d.n - 1 and d.index[names[0]] == merged
                for other in names[1:]:
                    h.merge_in_place(names[0], other)
                assert list(d.to_graph().vertices) == list(h.vertices)
                assert d.to_graph() == h
                assert all(d.deg[i] == d.adj[i].bit_count()
                           for i in range(d.n))
            assert shared.to_graph() == g  # copies keep their interning

    def test_remove_vertex_matches_graph(self):
        for seed, g in enumerate(fuzz_graphs(30)):
            if not len(g):
                continue
            rng = random.Random(seed)
            d = DenseGraph.from_graph(g)
            h = g.copy()
            for v in rng.sample(list(g.vertices), rng.randint(1, len(g))):
                d.remove_vertex(d.index[v])
                h.remove_vertex(v)
                assert d.to_graph() == h
                assert all(d.deg[i] == d.adj[i].bit_count()
                           for i in range(d.n))
            with pytest.raises(KeyError):
                d.remove_vertex(d.index[v])

    def test_split_group_gives_the_rebuilt_quotient(self):
        """Merge some groups, split one back with its input rows
        projected through the others: rows, degrees and liveness equal
        a fresh copy with only the other groups merged."""
        for seed, g in enumerate(fuzz_graphs(60)):
            rng = random.Random(seed)
            base = DenseGraph.from_graph(g)
            d = base.copy()
            groups = []
            free = list(range(base.n))
            rng.shuffle(free)
            for _ in range(3):
                group = []
                for i in free:
                    if all(not base.has_edge(i, j) for j in group):
                        group.append(i)
                    if len(group) == rng.randint(2, 4):
                        break
                if len(group) < 2:
                    break
                group.sort()
                free = [i for i in free if i not in group]
                d.merge_group(group)
                groups.append(group)
            if not groups:
                continue
            split = groups.pop(rng.randrange(len(groups)))
            owner = {m: group[0] for group in groups for m in group}
            rows = []
            for m in split:
                row = 0
                for w in range(base.n):
                    if base.adj[m] >> w & 1:
                        row |= 1 << owner.get(w, w)
                rows.append(row)
            d.split_group(split, rows)
            rebuilt = base.copy()
            for group in groups:
                rebuilt.merge_group(group)
            assert d.adj == rebuilt.adj and d.deg == rebuilt.deg
            assert d.alive == rebuilt.alive

    def test_split_group_errors(self):
        g = Graph(vertices=["a", "b", "c"])
        g.add_edge("a", "c")
        d = DenseGraph.from_graph(g)
        with pytest.raises(KeyError):
            d.split_group([0, 1], [0, 0])  # b was never merged into a
        d.merge_group([0, 1])
        before = d.copy()
        with pytest.raises(ValueError):
            d.split_group([0, 1], [1 << 1, 0])  # a row naming a member
        assert d.adj == before.adj and d.alive == before.alive

    def test_merge_group_errors(self):
        g = Graph(vertices=["a", "b", "c", "x"])
        g.add_edge("a", "b")
        d = DenseGraph.from_graph(g)
        with pytest.raises(ValueError):
            d.merge_group([0, 2, 1])  # a and b interfere
        d.merge_group([0, 2])
        with pytest.raises(KeyError):
            d.merge_group([3, 2])  # c is dead


def _twin_graph():
    g = InterferenceGraph(edges=[("a", "b"), ("b", "c"), ("c", "d")])
    g.add_affinity("a", "c", 2.0)
    g.add_affinity("a", "d")
    return g


#: Every Graph mutator, each changing the adjacency of ``_twin_graph()``.
TWIN_MUTATORS = {
    "add_vertex": lambda g: g.add_vertex("e"),
    "add_edge": lambda g: g.add_edge("a", "d"),
    "add_edge_rows": lambda g: g.add_edge_rows(["a", "e"], [0b10, 0]),
    "remove_vertex": lambda g: g.remove_vertex("b"),
    "remove_edge": lambda g: g.remove_edge("b", "c"),
    "Graph.merge_in_place": lambda g: Graph.merge_in_place(g, "a", "c"),
    "InterferenceGraph.merge_in_place":
        lambda g: g.merge_in_place("a", "d"),
}


class TestDenseTwin:
    """``Graph.dense()``: one frozen twin per graph state."""

    def test_built_once(self, monkeypatch):
        g = _twin_graph()
        original = DenseGraph.from_graph.__func__
        built = []

        def counting(cls, graph):
            built.append(graph)
            return original(cls, graph)

        monkeypatch.setattr(DenseGraph, "from_graph", classmethod(counting))
        assert g.dense() is g.dense()
        assert built == [g]

    @pytest.mark.parametrize("mutate", TWIN_MUTATORS.values(),
                             ids=TWIN_MUTATORS.keys())
    def test_mutator_drops_twin(self, mutate):
        g = _twin_graph()
        before = g.dense()
        mutate(g)
        twin, fresh = g.dense(), DenseGraph.from_graph(g)
        assert twin is not before
        assert twin.names == fresh.names
        assert list(twin.adj) == fresh.adj
        assert list(twin.deg) == fresh.deg
        assert twin.alive == fresh.alive

    @pytest.mark.parametrize("mutate", [
        lambda d: d.merge_in_place(0, 2),
        lambda d: d.merge_group([0, 2]),
        lambda d: d.remove_vertex(1),
    ], ids=["merge_in_place", "merge_group", "remove_vertex"])
    def test_twin_is_frozen_and_copy_is_not(self, mutate):
        g = _twin_graph()
        twin = g.dense()
        with pytest.raises(TypeError):
            mutate(twin)
        fresh = DenseGraph.from_graph(g)
        assert (list(twin.adj), twin.alive) == (fresh.adj, fresh.alive)
        work = twin.copy()
        mutate(work)
        assert work.num_alive() == 3
        assert g.dense() is twin


class TestKernelEquivalence:
    def test_mcs_orders_identical(self):
        for g in fuzz_graphs():
            assert (maximum_cardinality_search(g)
                    == ref.maximum_cardinality_search(g))

    def test_mcs_chordal_graphs(self):
        for seed in range(8):
            g = random_chordal_graph(30, 6, seed=seed)
            assert (maximum_cardinality_search(g)
                    == ref.maximum_cardinality_search(g))

    def test_mcs_corpus_and_wide_counts(self):
        """Bit-sliced MCS visits in the reference's order on every
        corpus function's graph, and on random graphs dense enough that
        the counts carry across many planes, before and after merges
        that leave dead slots."""
        from repro.frontend import corpus_functions
        from repro.frontend.corpus import function_instance

        graphs = [function_instance(func).graph
                  for _path, func in corpus_functions()]
        assert len(graphs) == 18
        for seed in range(40):
            rng = random.Random(seed)
            graphs.append(random_graph(rng.randint(30, 90),
                                       rng.uniform(0.3, 0.95), rng))
        rng = random.Random(9)
        for g in graphs:
            assert (maximum_cardinality_search(g)
                    == ref.maximum_cardinality_search(g))
            d = g.dense().copy()
            for _ in range(d.n // 4):
                i, j = rng.sample(range(d.n), 2)
                if (d.alive >> i & 1 and d.alive >> j & 1
                        and not d.has_edge(i, j)):
                    d.merge_in_place(i, j)
            assert ([d.names[i] for i in dn.mcs_order(d)]
                    == ref.maximum_cardinality_search(d.to_graph()))

    def test_greedy_coloring_identical(self):
        rng = random.Random(1)
        for g in fuzz_graphs() + [random_chordal_graph(40, 8, seed=3)]:
            assert greedy_coloring(g) == ref.greedy_coloring(g)
            order = list(reversed(list(g.vertices)))
            shuffled = rng.sample(order, len(order))
            for o in (order, shuffled):
                assert (greedy_coloring(g, order=o)
                        == ref.greedy_coloring(g, order=o))

    def test_kernels_on_merged_graphs(self):
        """Dense MCS and colouring skip dead slots and still match the
        references on the surviving graph, for the default, a shuffled
        and a partial order."""
        rng = random.Random(5)
        for g in fuzz_graphs(count=30, max_n=24):
            d = DenseGraph.from_graph(g)
            for _ in range(len(g) // 3):
                i, j = rng.sample(range(d.n), 2)
                if (d.alive >> i & 1 and d.alive >> j & 1
                        and not d.has_edge(i, j)):
                    d.merge_in_place(i, j)
            alive = d.to_graph()
            names = d.names
            assert ([names[i] for i in dn.mcs_order(d)]
                    == ref.maximum_cardinality_search(alive))
            order = list(alive.vertices)
            for o in (None, rng.sample(order, len(order)), order[::2]):
                idx = None if o is None else [d.index[v] for v in o]
                got = {names[i]: c
                       for i, c in dn.greedy_coloring(d, order=idx).items()}
                assert got == ref.greedy_coloring(alive, order=o)

    def test_mcs_color_counters_are_closed_form(self):
        """MCS and first-fit each count every edge once and a fixed
        number of words per visit — independent of how the kernel finds
        its next vertex or colour, so these counters never drift."""
        for g in fuzz_graphs() + [random_chordal_graph(60, 10, seed=2)]:
            d = DenseGraph.from_graph(g)
            e = sum(1 for _ in g.edges())
            tm, tc, to = Tracer(), Tracer(), Tracer()
            dn.mcs_order(d, tracer=tm)
            dn.greedy_coloring(d, tracer=tc)
            order = list(reversed(range(d.n)))
            dn.greedy_coloring(d, order=order, tracer=to)
            assert tm.counters.get(WORDS_MERGED, 0) == 2 * d.words * len(g)
            assert tm.counters.get(EDGES_SCANNED, 0) == e
            for t in (tc, to):
                assert t.counters.get(WORDS_MERGED, 0) == d.words * len(g)
                assert t.counters.get(EDGES_SCANNED, 0) == e

    def test_elimination_verdicts_identical(self):
        for g in fuzz_graphs():
            cn = coloring_number(g)
            for k in (max(0, cn - 1), cn, cn + 1):
                order, ok = greedy_elimination_order(g, k)
                order_d, ok_d = ref.greedy_elimination_order(g, k)
                assert is_greedy_k_colorable(g, k) == ok == ok_d
                if ok:
                    assert sorted(map(str, order)) == sorted(map(str, order_d))

    def test_negative_k_rejected(self):
        g = random_graph(4, 0.5, seed=0)
        with pytest.raises(ValueError):
            greedy_elimination_order(g, -1)
        with pytest.raises(ValueError):
            ref.greedy_elimination_order(g, -1)

    def test_conservative_verdicts_identical(self):
        """Each dense test agrees with its dict twin on every
        non-adjacent pair, with and without a maintained high mask."""
        for seed in range(20):
            rng = random.Random(seed)
            g = random_graph(rng.randint(2, 14), rng.uniform(0.1, 0.7), rng)
            ig = InterferenceGraph(vertices=list(g.vertices))
            for u, v in g.edges():
                ig.add_edge(u, v)
            d = DenseGraph.from_graph(ig)
            k = rng.randint(1, 6)
            high = d.high_degree_mask(k)
            names = list(ig.vertices)
            for name, dict_fn in ref.TESTS.items():
                dense_fn = dn.DENSE_TESTS[name]
                for u in names:
                    for v in names:
                        if u == v:
                            continue
                        i, j = d.index[u], d.index[v]
                        expected = dict_fn(ig, u, v, k)
                        assert dense_fn(d, i, j, k) == expected, (name, u, v)
                        assert dense_fn(d, i, j, k, high=high) == expected


class TestConservativeBackends:
    def test_partitions_and_counters_match(self):
        from repro.challenge.generator import pressure_instance

        for seed in range(8):
            rng = random.Random(seed)
            inst = pressure_instance(rng.randint(3, 6), rng.randint(3, 6),
                                     rng=rng)
            for test in ref.TESTS:
                td, te = Tracer(), Tracer()
                rd = ref.conservative_coalesce(inst.graph, inst.k, test=test,
                                               tracer=td)
                re_ = conservative_coalesce(inst.graph, inst.k, test=test,
                                            tracer=te)
                assert rd.as_mapping() == re_.coalescing.as_mapping()
                assert rd.uncoalesced_affinities() == re_.given_up
                for counter in ("conservative.rounds", "moves.attempted",
                                "moves.coalesced", "moves.rejected",
                                "moves.constrained", "queries.interference"):
                    assert (td.counters.get(counter, 0)
                            == te.counters.get(counter, 0)), (test, counter)


class TestBuildBackends:
    def test_liveness_identical(self):
        from repro.ir.generators import random_function
        from repro.ir.liveness import compute_liveness

        for seed in range(25):
            f = random_function(seed=seed)
            a = compute_liveness(f)
            b = ref.compute_liveness(f)
            assert a.live_in == b.live_in
            assert a.live_out == b.live_out

    def test_interference_identical(self):
        from repro.ir.generators import random_function
        from repro.ir.interference import chaitin_interference

        for seed in range(25):
            f = random_function(seed=seed)
            gd = chaitin_interference(f)
            gr = ref.chaitin_interference(f)
            assert set(gd.vertices) == set(gr.vertices)
            assert ({frozenset(e) for e in gd.edges()}
                    == {frozenset(e) for e in gr.edges()})
            assert sorted(gd.affinities()) == sorted(gr.affinities())


class TestWorkCounters:
    def test_dense_scans_fewer_elements(self):
        """The headline claim on a dense graph: the dense MCS / colour
        kernels consume strictly less total work than the dict ones."""
        g = random_graph(96, 0.3, seed=2)
        d = DenseGraph.from_graph(g)
        for dense_fn, dict_fn in (
            (dn.mcs_order, ref.maximum_cardinality_search),
            (dn.greedy_coloring, ref.greedy_coloring),
        ):
            td, tr = Tracer(), Tracer()
            dense_fn(d, tracer=td)
            dict_fn(g, tracer=tr)
            dense_work = sum(td.counters.get(c, 0)
                             for c in KERNEL_WORK_COUNTERS)
            dict_work = sum(tr.counters.get(c, 0)
                            for c in KERNEL_WORK_COUNTERS)
            assert dense_work < dict_work

    def test_counters_are_deterministic(self):
        g = random_graph(40, 0.25, seed=9)
        d = DenseGraph.from_graph(g)
        reference = None
        for _ in range(3):
            t = Tracer()
            dn.mcs_order(d, tracer=t)
            dn.greedy_coloring(d, tracer=t)
            snapshot = {c: t.counters.get(c, 0) for c in KERNEL_WORK_COUNTERS}
            if reference is None:
                reference = snapshot
            assert snapshot == reference

    def test_null_tracer_records_nothing(self):
        g = random_graph(20, 0.3, seed=4)
        assert maximum_cardinality_search(g) is not None
        t = Tracer()
        maximum_cardinality_search(g, tracer=t)
        assert t.counters.get(EDGES_SCANNED, 0) > 0
        assert t.counters.get(WORDS_MERGED, 0) > 0


class TestSnapshotHarness:
    def test_run_and_self_compare(self):
        from repro.bench import compare_snapshots, run_snapshot

        snap = run_snapshot(repeats=1, rev="test")
        assert snap["schema_version"] == 1
        assert snap["rev"] == "test"
        keys = {(r["kernel"], r["instance"], r["backend"])
                for r in snap["rows"]}
        assert len(keys) == len(snap["rows"])
        assert {k for k, _, _ in keys} == {
            "build", "mcs", "color", "coalesce", "intervals", "linscan",
        }
        # work counters exactly reproduce; generous wall band for CI noise
        again = run_snapshot(repeats=1, rev="test")
        for a, b in zip(snap["rows"], again["rows"]):
            assert a["counters"] == b["counters"]
        assert compare_snapshots(snap, again, tolerance=50.0) == []

    def test_compare_flags_counter_increase_and_slowdown(self):
        from repro.bench import compare_snapshots

        def doc(edges, wall):
            return {
                "schema_version": 1,
                "rows": [{
                    "kernel": "mcs", "instance": "g", "backend": "dense",
                    "wall_ms": wall,
                    "counters": {EDGES_SCANNED: edges, WORDS_MERGED: 5},
                    "work": edges + 5,
                }],
            }

        base = doc(100, 1.0)
        assert compare_snapshots(base, doc(100, 1.2)) == []
        assert any("increased" in p
                   for p in compare_snapshots(base, doc(101, 1.0)))
        assert any("wall_ms" in p
                   for p in compare_snapshots(base, doc(100, 2.0)))
        missing = {"schema_version": 1, "rows": []}
        assert any("missing" in p for p in compare_snapshots(base, missing))
        assert any("schema" in p
                   for p in compare_snapshots(base, {"schema_version": 2}))

    def test_work_reduction_enforcement(self):
        """Every pinned dense kernel does strictly less traced work than
        its ``tests/reference`` twin on the same instance.  The linear
        scan row has no reference allocator: its work is exactly the
        interval build's, so the intervals pair covers it."""
        from repro.bench import pinned_suite

        reference = {
            "build": ref.chaitin_interference,
            "mcs": ref.maximum_cardinality_search,
            "color": ref.greedy_coloring,
            "intervals": ref.build_intervals,
            "coalesce": ref.conservative_coalesce,
        }

        def work(tracer):
            return sum(tracer.counters.get(c, 0) for c in KERNEL_WORK_COUNTERS)

        dense_work = {}
        for case in pinned_suite():
            key = (case["kernel"], case["instance"])
            tracer = Tracer()
            case["run"](tracer)
            dense_work[key] = work(tracer)
            if case["kernel"] == "linscan":
                continue
            tracer = Tracer()
            reference[case["kernel"]](*case["args"], tracer=tracer)
            assert dense_work[key] < work(tracer), (key, work(tracer))
        assert (dense_work[("linscan", "ll-interp")]
                == dense_work[("intervals", "ll-interp")])

    def test_compare_skips_dict_rows(self):
        """Baselines recorded before the references moved to tests/
        carry dict rows; the gate ignores them and still gates dense."""
        from repro.bench import compare_snapshots

        def row(backend, edges):
            return {"kernel": "mcs", "instance": "g", "backend": backend,
                    "wall_ms": 1.0, "counters": {EDGES_SCANNED: edges}}

        base = {"schema_version": 1,
                "rows": [row("dense", 10), row("dict", 20)]}
        assert compare_snapshots(
            base, {"schema_version": 1, "rows": [row("dense", 10)]}) == []
        problems = compare_snapshots(
            base, {"schema_version": 1, "rows": [row("dense", 11)]})
        assert len(problems) == 1 and "mcs/g/dense" in problems[0]

    def test_write_load_roundtrip(self, tmp_path):
        from repro.bench import load_snapshot, run_snapshot, write_snapshot

        snap = run_snapshot(repeats=1, rev="test")
        path = tmp_path / "BENCH_test.json"
        write_snapshot(snap, str(path))
        assert load_snapshot(str(path)) == json.loads(path.read_text())
        bad = tmp_path / "bad.json"
        bad.write_text("{\"schema_version\": 99, \"rows\": []}\n")
        with pytest.raises(ValueError):
            load_snapshot(str(bad))

    @pytest.mark.parametrize("rows", [[{"kernel": "mcs"}], 5, [7],
                                      [{"kernel": "mcs", "instance": "g",
                                        "backend": "dense", "wall_ms": 1.0,
                                        "counters": 3}]])
    def test_load_rejects_malformed_rows(self, tmp_path, capsys, rows):
        """A malformed snapshot is a ValueError, and ``bench compare``
        reports it as an error with exit 2 instead of a traceback."""
        from repro.bench import load_snapshot
        from repro.cli import main

        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps({"schema_version": 1, "rows": rows}))
        with pytest.raises(ValueError):
            load_snapshot(str(bad))
        assert main(["bench", "compare", str(bad),
                     "--candidate", str(bad)]) == 2
        assert "error:" in capsys.readouterr().err

    def test_committed_baseline_gate(self):
        """The committed BENCH_*.json must pass the counter gate against
        a fresh run (the CI regression gate, minus the wall band)."""
        import glob
        import os

        from repro.bench import compare_snapshots, load_snapshot, run_snapshot

        root = os.path.join(os.path.dirname(__file__), os.pardir)
        baselines = sorted(glob.glob(os.path.join(root, "BENCH_*.json")))
        assert baselines, "no committed BENCH_*.json baseline"
        fresh = run_snapshot(repeats=1)
        for path in baselines:
            problems = compare_snapshots(load_snapshot(path), fresh,
                                         tolerance=1e9)
            assert problems == [], problems


class TestBenchCLI:
    def test_snapshot_and_compare_commands(self, tmp_path, capsys):
        from repro.cli import main

        out = tmp_path / "BENCH_cli.json"
        assert main(["bench", "snapshot", "--repeats", "1",
                     "--rev", "cli", "-o", str(out)]) == 0
        assert out.exists()
        assert main(["bench", "compare", str(out), "--candidate", str(out)]) == 0
        assert main(["bench", "compare"]) == 2
        assert main(["bench", "compare", str(tmp_path / "nope.json")]) == 2
        capsys.readouterr()

    def test_compare_detects_regression(self, tmp_path, capsys):
        from repro.bench import load_snapshot, write_snapshot
        from repro.cli import main

        out = tmp_path / "BENCH_cli.json"
        assert main(["bench", "snapshot", "--repeats", "1",
                     "--rev", "cli", "-o", str(out)]) == 0
        doc = load_snapshot(str(out))
        doc["rows"][0]["counters"][EDGES_SCANNED] += 1
        worse = tmp_path / "BENCH_worse.json"
        write_snapshot(doc, str(worse))
        assert main(["bench", "compare", str(out),
                     "--candidate", str(worse)]) == 1
        captured = capsys.readouterr()
        assert "REGRESSION" in captured.out
