"""Tests tying the paper's graph gadgets to actual programs."""

import pytest

from repro.coalescing import (
    aggressive_coalesce,
    conservative_coalesce,
    optimistic_coalesce,
)
from repro.graphs.greedy import is_greedy_k_colorable
from repro.ir import chaitin_interference
from tests.reference.gadget_programs import phi_merge_diamond, rotation_loop, swap_loop
from repro.ir.interference import set_frequencies_from_loops
from repro.ir.liveness import check_strict, maxlive
from tests import ssa_findings


class TestRotationLoop:
    def test_valid_ssa(self):
        for n in (2, 3, 4):
            f = rotation_loop(n)
            assert ssa_findings(f) == []
            assert check_strict(f) == []

    def test_rejects_small_n(self):
        with pytest.raises(ValueError):
            rotation_loop(1)

    def test_two_cliques(self):
        n = 4
        g = chaitin_interference(rotation_loop(n), weighted=False)
        entry_vals = [f"x{i}.0" for i in range(1, n + 1)]
        loop_vals = [f"x{i}.1" for i in range(1, n + 1)]
        assert g.is_clique(entry_vals)
        assert g.is_clique(loop_vals)

    def test_rotation_copies_frozen(self):
        # the back-edge rotation affinities connect interfering values:
        # a real rotation cannot be coalesced away
        n = 4
        g = chaitin_interference(rotation_loop(n), weighted=False)
        for i in range(1, n + 1):
            j = (i % n) + 1
            assert g.has_affinity(f"x{i}.1", f"x{j}.1")
            assert g.has_edge(f"x{i}.1", f"x{j}.1")

    def test_entry_copies_coalescible(self):
        n = 4
        g = chaitin_interference(rotation_loop(n), weighted=False)
        result = aggressive_coalesce(g)
        for i in range(1, n + 1):
            assert result.coalescing.same_class(f"x{i}.0", f"x{i}.1")

    def test_residual_lower_bound(self):
        # whatever the strategy, the n rotation moves stay
        n = 4
        f = rotation_loop(n)
        set_frequencies_from_loops(f)
        g = chaitin_interference(f)
        k = maxlive(f)
        for strategy in ("briggs", "brute"):
            r = conservative_coalesce(g, k, test=strategy)
            assert len(r.given_up) >= n
        r = optimistic_coalesce(g, k)
        assert len(r.given_up) >= n

    def test_swap_loop_alias(self):
        f = swap_loop()
        assert f.name == "rotate2"


class TestPhiMergeDiamond:
    def test_valid_ssa(self):
        for n in (1, 3, 4):
            f = phi_merge_diamond(n)
            assert ssa_findings(f) == []

    def test_is_permutation_gadget_shape(self):
        n = 4
        g = chaitin_interference(phi_merge_diamond(n), weighted=False)
        xs = [f"x{i}" for i in range(1, n + 1)]
        ys = [f"y{i}" for i in range(1, n + 1)]
        zs = [f"z{i}" for i in range(1, n + 1)]
        assert g.is_clique(xs)
        assert g.is_clique(ys)
        assert g.is_clique(zs)
        for x in xs:
            for y in ys:
                assert not g.has_edge(x, y)
        for i in range(1, n + 1):
            assert g.has_affinity(f"x{i}", f"y{i}")
            assert g.has_affinity(f"z{i}", f"y{i}")

    def test_all_affinities_coalescible_together(self):
        g = chaitin_interference(phi_merge_diamond(4), weighted=False)
        result = aggressive_coalesce(g)
        assert result.residual_weight == 0.0

    def test_single_merge_defeats_local_rules(self):
        # at k = Maxlive the one-at-a-time local rules refuse the φ
        # moves while the brute-force test coalesces everything
        n = 4
        f = phi_merge_diamond(n)
        g = chaitin_interference(f, weighted=False)
        k = maxlive(f)
        assert is_greedy_k_colorable(g, k)
        brute = conservative_coalesce(g, k, test="brute")
        briggs = conservative_coalesce(g, k, test="briggs")
        assert brute.residual_weight == 0.0
        assert briggs.residual_weight >= 0.0
        assert brute.residual_weight <= briggs.residual_weight

    def test_maxlive_is_n_plus_condition(self):
        f = phi_merge_diamond(4)
        assert maxlive(f) >= 4
