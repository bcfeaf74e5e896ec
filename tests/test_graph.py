"""Unit tests for the core Graph structure."""

import pytest

from repro.graphs.graph import Graph


@pytest.fixture
def triangle():
    return Graph(edges=[("a", "b"), ("b", "c"), ("c", "a")])


class TestConstruction:
    def test_empty(self):
        g = Graph()
        assert len(g) == 0
        assert g.num_edges() == 0

    def test_vertices_only(self):
        g = Graph(vertices=["a", "b"])
        assert len(g) == 2
        assert g.num_edges() == 0

    def test_edges_add_endpoints(self):
        g = Graph(edges=[("a", "b")])
        assert "a" in g and "b" in g

    def test_self_loop_rejected(self):
        g = Graph()
        with pytest.raises(ValueError):
            g.add_edge("a", "a")

    def test_add_vertex_idempotent(self):
        g = Graph()
        g.add_vertex("a")
        g.add_edge("a", "b")
        g.add_vertex("a")
        assert g.degree("a") == 1

    def test_add_edge_idempotent(self, triangle):
        triangle.add_edge("a", "b")
        assert triangle.num_edges() == 3

    def test_insertion_order_preserved(self):
        g = Graph(vertices=["z", "a", "m"])
        assert list(g.vertices) == ["z", "a", "m"]


class TestQueries:
    def test_has_edge_symmetric(self, triangle):
        assert triangle.has_edge("a", "b")
        assert triangle.has_edge("b", "a")

    def test_has_edge_absent(self, triangle):
        triangle.add_vertex("d")
        assert not triangle.has_edge("a", "d")

    def test_has_edge_unknown_vertex(self, triangle):
        assert not triangle.has_edge("a", "nope")

    def test_neighbors(self, triangle):
        assert triangle.neighbors("a") == frozenset({"b", "c"})

    def test_degree(self, triangle):
        assert triangle.degree("a") == 2

    def test_max_degree(self, triangle):
        triangle.add_edge("a", "d")
        assert triangle.max_degree() == 3

    def test_max_degree_empty(self):
        assert Graph().max_degree() == 0

    def test_edges_each_once(self, triangle):
        edges = list(triangle.edges())
        assert len(edges) == 3
        assert len({frozenset(e) for e in edges}) == 3

    def test_is_clique(self, triangle):
        assert triangle.is_clique(["a", "b", "c"])
        triangle.add_vertex("d")
        assert not triangle.is_clique(["a", "b", "d"])

    def test_is_clique_trivial(self, triangle):
        assert triangle.is_clique([])
        assert triangle.is_clique(["a"])


class TestMutation:
    def test_remove_vertex(self, triangle):
        triangle.remove_vertex("a")
        assert "a" not in triangle
        assert triangle.num_edges() == 1

    def test_remove_missing_vertex_raises(self, triangle):
        with pytest.raises(KeyError):
            triangle.remove_vertex("zz")

    def test_remove_edge(self, triangle):
        triangle.remove_edge("a", "b")
        assert not triangle.has_edge("a", "b")
        assert triangle.num_edges() == 2

    def test_remove_missing_edge_raises(self, triangle):
        with pytest.raises(KeyError):
            triangle.remove_edge("a", "zz")


class TestMerge:
    def test_merge_basic(self):
        g = Graph(edges=[("a", "x"), ("b", "y")])
        m = g.merged("a", "b")
        assert "b" not in m
        assert m.neighbors("a") == frozenset({"x", "y"})

    def test_merge_common_neighbor(self):
        g = Graph(edges=[("a", "x"), ("b", "x")])
        m = g.merged("a", "b")
        assert m.degree("a") == 1
        assert m.degree("x") == 1

    def test_merge_adjacent_rejected(self):
        g = Graph(edges=[("a", "b")])
        with pytest.raises(ValueError):
            g.merged("a", "b")

    def test_merge_into_name(self):
        g = Graph(vertices=["a", "b"], edges=[("a", "x")])
        m = g.merged("a", "b", into="ab")
        assert "ab" in m and "a" not in m and "b" not in m
        assert m.has_edge("ab", "x")

    def test_merge_does_not_mutate_original(self):
        g = Graph(edges=[("a", "x")])
        g.add_vertex("b")
        g.merged("a", "b")
        assert "b" in g

    def test_merge_in_place(self):
        g = Graph(edges=[("a", "x")])
        g.add_vertex("b")
        name = g.merge_in_place("a", "b")
        assert name == "a"
        assert "b" not in g

    def test_merge_missing_vertex(self):
        g = Graph(vertices=["a"])
        with pytest.raises(KeyError):
            g.merged("a", "zz")


class TestDerived:
    def test_copy_independent(self, triangle):
        c = triangle.copy()
        c.remove_vertex("a")
        assert "a" in triangle

    def test_subgraph(self, triangle):
        s = triangle.subgraph(["a", "b"])
        assert len(s) == 2
        assert s.has_edge("a", "b")
        assert s.num_edges() == 1

    def test_subgraph_unknown_vertex(self, triangle):
        with pytest.raises(KeyError):
            triangle.subgraph(["a", "zz"])

    def test_subgraph_keeps_insertion_order(self):
        names = [f"v{i}" for i in range(8)]
        g = Graph(vertices=names, edges=[(names[i], names[i + 1])
                                         for i in range(7)])
        assert list(g.subgraph(names).vertices) == names
        assert list(g.subgraph(reversed(names[2:6])).vertices) == names[2:6]
        s = g.subgraph(["v5", "v3", "v4"])
        assert list(s.vertices) == ["v3", "v4", "v5"]
        assert sorted(map(sorted, s.edges())) == [["v3", "v4"], ["v4", "v5"]]

    def test_subgraph_order_independent_of_hash_seed(self):
        """Subgraph vertex order (which DenseGraph interns by) is the
        parent's insertion order under every PYTHONHASHSEED."""
        import subprocess
        import sys
        from pathlib import Path

        probe = (
            "from repro.graphs.graph import Graph\n"
            "from repro.graphs.interference import InterferenceGraph\n"
            "names = [f'v{i}' for i in range(8)]\n"
            "g = InterferenceGraph(vertices=names,\n"
            "    edges=[(names[i], names[(i * 3) % 8]) for i in range(1, 8)\n"
            "           if i != (i * 3) % 8],\n"
            "    affinities=[('v0', 'v1'), ('v2', 'v6')])\n"
            "print(list(Graph(vertices=names).subgraph(names).vertices))\n"
            "s = g.subgraph(reversed(names[1:7]))\n"
            "print(list(s.vertices), list(s.edges()), list(s.affinities()))\n"
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

    def test_add_edge_rows(self):
        g = Graph(vertices=["z"])
        # asymmetric rows: a-b only in a's row, b-c in both, c-a in c's
        g.add_edge_rows(["a", "b", "c"], [0b010, 0b100, 0b011])
        assert list(g.vertices) == ["z", "a", "b", "c"]
        assert g == Graph(vertices=["z"], edges=[("a", "b"), ("b", "c"),
                                                 ("a", "c")])
        g.add_edge_rows(["c", "z"], [0b10, 0])
        assert g.has_edge("z", "c") and g.num_edges() == 4

    def test_add_edge_rows_rejects_self_loop(self):
        g = Graph()
        with pytest.raises(ValueError, match="self-loop"):
            g.add_edge_rows(["a", "b"], [0b10, 0b10])

    def test_complement(self):
        g = Graph(vertices=["a", "b", "c"], edges=[("a", "b")])
        c = g.complement()
        assert not c.has_edge("a", "b")
        assert c.has_edge("a", "c")
        assert c.has_edge("b", "c")

    def test_connected_components(self):
        g = Graph(edges=[("a", "b"), ("c", "d")])
        g.add_vertex("e")
        comps = sorted(
            [tuple(sorted(c)) for c in g.connected_components()]
        )
        assert comps == [("a", "b"), ("c", "d"), ("e",)]

    def test_equality(self, triangle):
        other = Graph(edges=[("a", "b"), ("b", "c"), ("c", "a")])
        assert triangle == other
        other.add_vertex("d")
        assert triangle != other

    def test_repr(self, triangle):
        assert "3" in repr(triangle)
