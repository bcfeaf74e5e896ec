"""Tests for the challenge instance format and generators."""

import io
import random

import pytest

from repro.challenge.format import (
    ChallengeInstance,
    dump_instance,
    dumps_instance,
    load_instances,
    loads_instances,
)
from repro.challenge.generator import (
    pressure_instance,
    program_instance,
    survivor_interferences_ok,
)
from repro.graphs.greedy import is_greedy_k_colorable
from repro.graphs.interference import InterferenceGraph


class TestFormat:
    def make(self):
        g = InterferenceGraph(
            edges=[("a", "b")], affinities=[("a", "c")]
        )
        g.add_vertex("lonely")
        return ChallengeInstance(name="t", k=4, graph=g)

    def test_roundtrip(self):
        inst = self.make()
        back = loads_instances(dumps_instance(inst))
        assert len(back) == 1
        b = back[0]
        assert b.name == "t" and b.k == 4
        assert set(b.graph.vertices) == set(inst.graph.vertices)
        assert b.graph.has_edge("a", "b")
        assert b.graph.affinity_weight("a", "c") == 1.0

    def test_multiple_instances(self):
        text = dumps_instance(self.make()) + dumps_instance(
            ChallengeInstance("u", 2, InterferenceGraph(vertices=["x"]))
        )
        insts = loads_instances(text)
        assert [i.name for i in insts] == ["t", "u"]

    def test_comments_and_blanks(self):
        text = "# header\n\ngraph g 3\nnode a  # trailing\n"
        insts = loads_instances(text)
        assert insts[0].k == 3 and "a" in insts[0].graph

    def test_record_before_header_rejected(self):
        with pytest.raises(ValueError):
            loads_instances("node a\n")

    def test_malformed_rejected(self):
        with pytest.raises(ValueError):
            loads_instances("graph g 3\nedge a\n")
        with pytest.raises(ValueError):
            loads_instances("graph g\n")

    def test_weighted_affinity(self):
        text = "graph g 2\naffinity a b 3.5\n"
        inst = loads_instances(text)[0]
        assert inst.graph.affinity_weight("a", "b") == 3.5


class TestPressureInstance:
    def test_always_greedy_colorable(self):
        for seed in range(10):
            inst = pressure_instance(5, 7, margin=0, rng=random.Random(seed))
            assert survivor_interferences_ok(inst), seed

    def test_margin_reduces_width(self):
        tight = pressure_instance(6, 4, margin=0, rng=random.Random(0))
        slack = pressure_instance(6, 4, margin=2, rng=random.Random(0))
        assert len(slack.graph) < len(tight.graph)

    def test_margin_validation(self):
        with pytest.raises(ValueError):
            pressure_instance(4, 3, margin=4)
        with pytest.raises(ValueError):
            pressure_instance(4, 3, margin=-1)

    def test_has_affinities(self):
        inst = pressure_instance(5, 8, rng=random.Random(3))
        assert inst.graph.num_affinities() > 0

    def test_affinity_endpoints_coalescable_individually(self):
        inst = pressure_instance(5, 6, rng=random.Random(4))
        for u, v, _ in inst.graph.affinities():
            assert not inst.graph.has_edge(u, v)

    def test_deterministic(self):
        a = pressure_instance(5, 6, rng=random.Random(9))
        b = pressure_instance(5, 6, rng=random.Random(9))
        assert dumps_instance(a) == dumps_instance(b)


class TestProgramInstance:
    def test_greedy_colorable(self):
        for seed in range(5):
            inst = program_instance(seed, 4)
            assert is_greedy_k_colorable(inst.graph, 4), seed

    def test_named(self):
        assert program_instance(2, 4).name == "program2"
        assert program_instance(2, 4, name="x").name == "x"

    def test_no_memory_slots(self):
        inst = program_instance(1, 3)
        assert not any(str(v).startswith("slot(") for v in inst.graph.vertices)


def test_program_instance_independent_of_hash_seed():
    """Instance generation must be byte-identical across interpreter
    hash randomization: the generator → SSA → spill → interference path
    once leaked set-iteration order into φ placement, spill choices and
    affinity insertion order (the ROADMAP hash-determinism item).

    This extends the `repro check` hash-invariance discipline to the
    "program" cohort: graph content, affinity *order*, and strategy
    outcomes all have to match across PYTHONHASHSEED values.  The
    seed-19 spec runs every coalescing strategy of the end-to-end
    benchmark, verified: the chordal strategy's witness chain once
    followed frozenset iteration order, so its ``result_hash`` moved
    with the hash seed while both records certified.
    """
    import subprocess
    import sys
    from pathlib import Path

    probe = (
        "import json\n"
        "from repro.challenge.generator import program_instance\n"
        "from repro.engine.tasks import TaskSpec, run_task\n"
        "out = []\n"
        "for seed in (0, 3, 9):\n"
        "    inst = program_instance(seed, 4)\n"
        "    g = inst.graph\n"
        "    out.append({\n"
        "        'edges': sorted(map(sorted, g.edges())),\n"
        "        'affinities': [(str(u), str(v), w)\n"
        "                       for u, v, w in g.affinities()],\n"
        "    })\n"
        "for strategy in ('briggs', 'aggressive'):\n"
        "    rec = run_task(TaskSpec(generator='program', seed=9, k=4,\n"
        "                            strategy=strategy))\n"
        "    out.append({'key': rec['key'],\n"
        "                'result_hash': rec['result_hash'],\n"
        "                'status': rec['status'],\n"
        "                'coalesced': rec['payload']['coalesced'],\n"
        "                'residual': rec['payload']['residual_weight']})\n"
        "for strategy in ('briggs', 'george', 'briggs_george',\n"
        "                 'george_extended', 'brute', 'aggressive',\n"
        "                 'optimistic', 'biased', 'chordal', 'irc',\n"
        "                 'interval'):\n"
        "    rec = run_task(TaskSpec(generator='program', seed=19, k=8,\n"
        "                            strategy=strategy,\n"
        "                            params={'num_vars': 24}), verify=True)\n"
        "    out.append({'key': rec['key'],\n"
        "                'result_hash': rec['result_hash'],\n"
        "                'status': rec['status'],\n"
        "                'verification': rec['verification']['status']})\n"
        "print(json.dumps(out, sort_keys=True))\n"
    )
    outputs = set()
    for seed in ("0", "42", "1337"):
        proc = subprocess.run(
            [sys.executable, "-c", probe],
            capture_output=True, text=True,
            env={"PYTHONHASHSEED": seed,
                 "PYTHONPATH": str(Path(__file__).resolve().parent.parent
                                   / "src"),
                 "PATH": "/usr/bin:/bin"},
        )
        assert proc.returncode == 0, proc.stderr
        outputs.add(proc.stdout)
    assert len(outputs) == 1
