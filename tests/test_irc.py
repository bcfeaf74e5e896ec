"""Tests for the iterated-register-coalescing implementation."""

import json
import random
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from repro.allocator.irc import irc_allocate
from repro.challenge.generator import pressure_instance, program_instance
from repro.coalescing import conservative_coalesce
from repro.engine.tasks import TaskSpec, build
from repro.frontend.corpus import corpus_functions
from repro.graphs.generators import (
    complete_graph,
    padded_permutation_gadget,
)
from repro.graphs.interference import InterferenceGraph
from repro.ir.liveness import maxlive
from repro.obs import Tracer
from tests.reference import irc as reference


def check_coloring(graph, result, k):
    for v in graph.vertices:
        if v in result.spilled:
            continue
        assert v in result.colors
        assert 0 <= result.colors[v] < k
    colored = set(result.colors) - set(result.spilled)
    for u, v in graph.edges():
        if u in colored and v in colored:
            assert result.colors[u] != result.colors[v], (u, v)


class TestBasics:
    def test_rejects_k_zero(self):
        with pytest.raises(ValueError):
            irc_allocate(InterferenceGraph(), 0)

    def test_empty_graph(self):
        r = irc_allocate(InterferenceGraph(), 3)
        assert r.colors == {} and r.success

    def test_simple_coalesce(self):
        g = InterferenceGraph(edges=[("a", "b")], affinities=[("a", "c")])
        r = irc_allocate(g, 2)
        assert r.success
        assert r.colors["a"] == r.colors["c"]
        assert r.coalesced_moves == 1

    def test_constrained_move_not_coalesced(self):
        g = InterferenceGraph(
            edges=[("a", "b")], affinities=[("a", "b")]
        )
        r = irc_allocate(g, 2)
        assert r.success
        assert r.colors["a"] != r.colors["b"]
        assert r.coalesced_moves == 0

    def test_spills_reported_when_uncolorable(self):
        g = InterferenceGraph()
        for u, v in complete_graph(4).edges():
            g.add_edge(u, v)
        r = irc_allocate(g, 3)
        assert len(r.spilled) >= 1
        check_coloring(g, r, 3)

    def test_valid_on_random_instances(self):
        for seed in range(10):
            inst = pressure_instance(5, 8, margin=0, rng=random.Random(seed))
            r = irc_allocate(inst.graph, inst.k)
            assert r.success, seed
            check_coloring(inst.graph, r, inst.k)

    def test_program_instances(self):
        for seed in range(8):
            inst = program_instance(seed, 4)
            r = irc_allocate(inst.graph, inst.k)
            assert r.success, seed
            check_coloring(inst.graph, r, inst.k)

    def test_alias_maps_to_colored_rep(self):
        g = InterferenceGraph(affinities=[("a", "b"), ("b", "c")])
        r = irc_allocate(g, 2)
        assert r.success
        assert r.colors["a"] == r.colors["b"] == r.colors["c"]


class TestPrecolored:
    def test_precolored_pins_color(self):
        g = InterferenceGraph(edges=[("r0", "t")])
        r = irc_allocate(g, 2, precolored={"r0": 0})
        assert r.colors["r0"] == 0
        assert r.colors["t"] == 1

    def test_precolored_out_of_range(self):
        g = InterferenceGraph(vertices=["r9"])
        with pytest.raises(ValueError):
            irc_allocate(g, 2, precolored={"r9": 5})

    def test_precolored_unknown_vertex(self):
        with pytest.raises(ValueError):
            irc_allocate(InterferenceGraph(), 2, precolored={"zz": 0})

    def test_improper_precolouring_rejected(self):
        # a and b interfere: pinning both to register 0 is no colouring
        g = InterferenceGraph(edges=[("a", "b"), ("b", "c")])
        with pytest.raises(ValueError, match="interfere"):
            irc_allocate(g, 2, precolored={"a": 0, "b": 0})
        # non-adjacent vertices may share a register
        r = irc_allocate(g, 2, precolored={"a": 0, "c": 0})
        assert r.colors == {"a": 0, "c": 0, "b": 1}

    def test_george_merges_into_precolored(self):
        # the published asymmetry: moves to machine registers use
        # George's test — t's significant neighbours must neighbour r0
        g = InterferenceGraph()
        g.add_edge("r0", "x")
        g.add_edge("t", "x")
        g.add_affinity("t", "r0")
        r = irc_allocate(g, 2, precolored={"r0": 0})
        assert r.success
        assert r.colors["t"] == 0  # coalesced into r0

    def test_precolored_never_spilled(self):
        g = InterferenceGraph()
        for u, v in complete_graph(4).edges():
            g.add_edge(u, v)
        pre = {"k0": 0, "k1": 1, "k2": 2}
        r = irc_allocate(g, 3, precolored=pre)
        assert not (set(r.spilled) & set(pre))
        for v, c in pre.items():
            assert r.colors[v] == c


class TestGeorgeAnySwitch:
    def test_never_fewer_moves_in_aggregate(self):
        base = extended = 0
        for seed in range(10):
            inst = pressure_instance(6, 9, margin=0, rng=random.Random(seed))
            base += irc_allocate(inst.graph, inst.k).coalesced_moves
            extended += irc_allocate(
                inst.graph, inst.k, george_any=True
            ).coalesced_moves
        assert extended >= base

    def test_figure3_gadget_interleaving_nuance(self):
        # The one-shot Briggs test refuses every move of the padded
        # permutation gadget (tests elsewhere), but IRC *interleaves*
        # simplification with coalescing: the degree-1 padding vertices
        # are simplified first, the gadget degrees drop below k, and
        # Briggs then accepts all four moves.  This is exactly the
        # paper's point that the local rules' verdict depends on being
        # applied "before all vertices of small degree are removed from
        # the graph" — the failure mode needs *rigid* padding, which is
        # what the high-pressure challenge instances provide.
        g = padded_permutation_gadget(4)
        r = irc_allocate(g, 6)
        assert r.success
        assert r.coalesced_moves == 4
        # on rigid Maxlive = k instances IRC's Briggs leaves moves
        # behind, like the standalone rule
        inst = pressure_instance(6, 9, margin=0, rng=random.Random(0))
        r = irc_allocate(inst.graph, inst.k)
        assert r.success
        assert r.coalesced_moves < inst.graph.num_affinities()

    def test_comparable_to_worklist_conservative(self):
        # IRC and our iterated conservative coalescer agree on the
        # order of magnitude of residual moves
        for seed in range(6):
            inst = pressure_instance(5, 7, margin=1, rng=random.Random(seed))
            r = irc_allocate(inst.graph, inst.k)
            cc = conservative_coalesce(inst.graph, inst.k, test="briggs_george")
            assert abs(r.coalesced_moves - cc.num_coalesced) <= max(
                3, inst.graph.num_affinities() // 3
            ), seed


class TestIRCCoalescingResult:
    def test_wrapper_valid(self):
        from repro.allocator.irc import irc_coalescing_result
        from repro.graphs.greedy import is_greedy_k_colorable

        for seed in range(6):
            inst = pressure_instance(5, 7, margin=0, rng=random.Random(seed))
            r = irc_coalescing_result(inst.graph, inst.k)
            assert r.strategy == "irc"
            # the coalescing is valid (would raise on interference)
            q = r.coalesced_graph()
            assert is_greedy_k_colorable(q, inst.k), seed

    def test_wrapper_counts_match_raw(self):
        from repro.allocator.irc import irc_allocate, irc_coalescing_result

        inst = pressure_instance(5, 7, margin=0, rng=random.Random(3))
        raw = irc_allocate(inst.graph, inst.k)
        wrapped = irc_coalescing_result(inst.graph, inst.k)
        assert wrapped.num_coalesced >= raw.coalesced_moves - 1


def assert_matches_reference(graph, k, **options):
    """The dense round returns the dict oracle's result, field by field
    and in the same order, and counts the same events and spans."""
    runs = []
    for allocate in (irc_allocate, reference.irc_allocate):
        tracer = Tracer()
        runs.append((allocate(graph, k, tracer=tracer, **options), tracer))
    (dense, dense_trace), (oracle, oracle_trace) = runs
    assert list(dense.colors.items()) == list(oracle.colors.items())
    assert dense.spilled == oracle.spilled
    assert list(dense.alias.items()) == list(oracle.alias.items())
    assert dense.coalesced_moves == oracle.coalesced_moves
    assert dense.frozen_moves == oracle.frozen_moves
    assert dense_trace.counters == oracle_trace.counters
    assert not [n for n in dense_trace.counters if n.startswith("kernel.")]
    assert sorted(dense_trace.spans()) == sorted(oracle_trace.spans())


def random_graph(rng, n, k):
    """Interference edges, weighted affinities, a proper precolouring of
    a few vertices and spill costs, drawn from ``rng``."""
    names = [f"v{i}" for i in range(n)]
    g = InterferenceGraph(vertices=names)
    for i in range(n):
        for j in range(i + 1, n):
            r = rng.random()
            if r < 0.25:
                g.add_edge(names[i], names[j])
            elif r < 0.4:
                g.add_affinity(names[i], names[j], rng.randint(1, 5))
    pre = {}
    for v in rng.sample(names, min(n, rng.randint(0, 3))):
        c = rng.randrange(k)
        if all(pre.get(u) != c for u in g.neighbors_view(v)):
            pre[v] = c
    costs = {v: rng.uniform(0.5, 10.0) for v in names}
    return g, pre, costs


class TestMatchesReference:
    """``tests/reference/irc.py`` is the dict-of-set transcription of the
    published worklists; the bitmask round must agree with it exactly."""

    def test_corpus_graphs_at_maxlive_and_below(self):
        checked = 0
        for path, func in corpus_functions():
            top = maxlive(func)
            for k in (top, top - 1):
                if k < 2:
                    continue
                spec = TaskSpec(generator="llvm", seed=0, k=k,
                                strategy="irc",
                                params={"path": path.name,
                                        "function": func.name})
                graph = build(spec).subject
                for george_any in (False, True):
                    assert_matches_reference(graph, k, george_any=george_any)
                checked += 1
        assert checked >= 30

    @pytest.mark.parametrize("seed", range(20))
    def test_generated_instances(self, seed):
        for inst in (
            pressure_instance(6, 10, margin=0, rng=random.Random(seed)),
            pressure_instance(5, 8, margin=1, rng=random.Random(seed)),
            program_instance(seed, 4),
        ):
            for k in (inst.k, max(1, inst.k - 1)):
                assert_matches_reference(inst.graph, k)
                assert_matches_reference(inst.graph, k, george_any=True)

    @pytest.mark.parametrize("seed", range(40))
    def test_precoloured_with_costs(self, seed):
        rng = random.Random(seed)
        k = rng.randint(1, 6)
        g, pre, costs = random_graph(rng, rng.randint(2, 30), k)
        for george_any in (False, True):
            assert_matches_reference(g, k, precolored=pre, costs=costs,
                                     george_any=george_any)

    @settings(max_examples=60, deadline=None)
    @given(st.integers(0, 10**6), st.integers(1, 40), st.integers(1, 7),
           st.booleans())
    def test_random_graphs_with_affinities(self, seed, n, k, george_any):
        g, pre, costs = random_graph(random.Random(seed), n, k)
        assert_matches_reference(g, k, precolored=pre, costs=costs,
                                 george_any=george_any)


#: One process's IRC answers: the pooled seed-24 ``irc`` task's
#: ``result_hash`` and the colours, alias and spills of 120 generated
#: instances.
_DETERMINISM_PROBE = """
import json, random
from repro.allocator.irc import irc_allocate
from repro.challenge.generator import pressure_instance, program_instance
from repro.engine import TaskSpec, run_task
spec = TaskSpec(generator="pressure", seed=24, k=6, strategy="irc",
                params={"rounds": 10})
out = {"result_hash": run_task(spec)["result_hash"], "instances": []}
for s in range(60):
    for inst in (pressure_instance(6, 10, margin=0, rng=random.Random(s)),
                 program_instance(s, 4)):
        r = irc_allocate(inst.graph, inst.k)
        out["instances"].append([
            sorted((str(v), c) for v, c in r.colors.items()),
            sorted((str(v), str(a)) for v, a in r.alias.items()),
            [str(v) for v in r.spilled],
        ])
print(json.dumps(out))
"""


def test_results_do_not_depend_on_the_hash_seed():
    """The merge direction and the colouring order of coalesced nodes
    are fixed, so no set-iteration order reaches the result."""
    src = Path(__file__).resolve().parent.parent / "src"
    outputs = {}
    for seed in range(6):
        proc = subprocess.run(
            [sys.executable, "-c", _DETERMINISM_PROBE],
            capture_output=True, text=True,
            env={"PYTHONHASHSEED": str(seed), "PYTHONPATH": str(src),
                 "PATH": "/usr/bin:/bin"},
        )
        assert proc.returncode == 0, proc.stderr
        outputs[seed] = json.loads(proc.stdout)
    hashes = {seed: out["result_hash"] for seed, out in outputs.items()}
    assert len(set(hashes.values())) == 1, hashes
    first = outputs[0]["instances"]
    for seed, out in outputs.items():
        differ = [i for i, (a, b) in enumerate(zip(first, out["instances"]))
                  if a != b]
        assert not differ, (seed, differ[:5])
