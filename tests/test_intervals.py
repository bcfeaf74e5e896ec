"""Tests for the live-interval subsystem (:mod:`repro.intervals`).

The load-bearing invariants, each cross-checked against an
independent implementation:

* the dense and the reference interval builders agree bit-exactly, on
  fuzzed programs and on the whole LLVM corpus;
* the boundary occupancy sets reproduce ``compute_liveness`` (and the
  reference liveness) at block entries and ends;
* ``IntervalSet.max_overlap() == maxlive(func)`` — the occupancy
  convention *is* the register-pressure convention;
* Chaitin interference implies interval intersection (intervals
  over-approximate the graph, never under);
* every linear-scan assignment passes the allocation analysis passes
  (``ALLOC*`` + ``INTV*``) with zero errors.

(The unrelated ``tests/test_interval.py`` covers interval *graphs* in
``repro.graphs.interval``.)
"""

import pytest

from repro.analysis import check_allocation, check_coalescing_result
from repro.engine import TaskSpec, run_task
from repro.frontend.corpus import corpus_dir, function_from_path
from repro.frontend import parse_module
from repro.frontend.lower import lower_function
from repro.intervals import (
    IntervalSet,
    LiveInterval,
    build_intervals,
    function_interval_coalesce,
    interval_coalesce,
    interval_stats,
    linear_scan_allocate,
    merge_ranges,
    number_points,
    ranges_intersect,
)
from repro.ir import GeneratorConfig, construct_ssa, random_function
from repro.ir.interference import chaitin_interference
from repro.ir.liveness import compute_liveness, maxlive
from repro.obs import RANGES_BUILT, Tracer
from tests import reference as ref
from tests import allocation_errors


FUZZ_SEEDS = range(12)


def _fuzz_func(seed, **kw):
    kw.setdefault("num_vars", 10)
    return construct_ssa(random_function(seed, GeneratorConfig(**kw)))


def _corpus_functions():
    for path in sorted(corpus_dir().glob("*.ll")):
        module = parse_module(path.read_text())
        for llf in module.functions:
            yield f"{path.name}:{llf.name}", lower_function(llf)


# ---------------------------------------------------------------- model


class TestRangeAlgebra:
    def test_ranges_intersect(self):
        assert ranges_intersect(((0, 3),), ((3, 5),))
        assert not ranges_intersect(((0, 3),), ((4, 5),))
        assert ranges_intersect(((0, 1), (8, 9)), ((9, 12),))
        assert not ranges_intersect(((0, 1), (8, 9)), ((2, 7), (10, 12)))
        assert not ranges_intersect((), ((0, 100),))

    def test_merge_ranges_fuses_adjacent(self):
        assert merge_ranges(((0, 2),), ((3, 5),)) == ((0, 5),)
        assert merge_ranges(((0, 2),), ((4, 5),)) == ((0, 2), (4, 5))
        assert merge_ranges(((0, 9),), ((2, 3),)) == ((0, 9),)
        assert merge_ranges((), ((1, 1),)) == ((1, 1),)

    def test_live_interval_covers_and_holes(self):
        iv = LiveInterval(var="x", ranges=((2, 4), (8, 8), (12, 15)))
        assert iv.start == 2 and iv.end == 15
        assert iv.num_ranges == 3 and iv.holes == 2
        assert all(iv.covers(p) for p in (2, 3, 4, 8, 12, 15))
        assert not any(iv.covers(p) for p in (0, 1, 5, 7, 9, 11, 16))
        assert iv.intersects(LiveInterval(var="y", ranges=((5, 8),)))
        assert not iv.intersects(LiveInterval(var="y", ranges=((5, 7),)))

    def test_point_mask(self):
        iv = LiveInterval(var="x", ranges=((2, 4), (8, 8), (12, 15)))
        assert iv.mask == sum(1 << p for p in (2, 3, 4, 8, 12, 13, 14, 15))
        assert LiveInterval(var="e", ranges=()).mask == 0
        # derived, so equality still means same variable and ranges
        assert iv == LiveInterval(var="x", ranges=iv.ranges)

    def test_intersects_matches_ranges_intersect(self):
        import random

        rng = random.Random(0)

        def random_ranges():
            ranges, point = [], rng.randint(0, 6)
            for _ in range(rng.randint(0, 5)):
                end = point + rng.randint(0, 5)
                ranges.append((point, end))
                point = end + rng.randint(2, 6)  # keep the normal form
            return tuple(ranges)

        seen = set()
        for _ in range(3000):
            a, b = random_ranges(), random_ranges()
            expected = ranges_intersect(a, b)
            seen.add(expected)
            ia = LiveInterval(var="a", ranges=a)
            ib = LiveInterval(var="b", ranges=b)
            assert ia.intersects(ib) == ib.intersects(ia) == expected, (a, b)
            assert all(ia.covers(p) == any(s <= p <= e for s, e in a)
                       for p in range(-1, 60))
        assert seen == {True, False}


class TestProgramPoints:
    def test_block_windows_are_contiguous_rpo(self):
        func = _fuzz_func(0)
        points = number_points(func)
        seen = []
        for name in points.order:
            n = len(func.blocks[name].instrs)
            entry = points.block_entry(name)
            if n:
                assert points.instr_point(name, 0) == entry + 1
            assert points.block_end(name) == entry + n + 1
            seen.extend(range(entry, entry + n + 2))
        assert seen == list(range(points.total))
        assert points.order[0] == func.entry

    def test_describe_names_the_point(self):
        func = _fuzz_func(0)
        points = number_points(func)
        entry = points.block_entry(func.entry)
        assert points.describe(entry) == f"{func.entry}:entry"
        assert points.describe(points.block_end(func.entry)).endswith(":end")
        if func.blocks[func.entry].instrs:
            assert points.describe(entry + 1) == f"{func.entry}[0]"


class TestBuilders:
    @pytest.mark.parametrize("seed", FUZZ_SEEDS)
    def test_dense_matches_dict_fuzz(self, seed):
        func = _fuzz_func(seed)
        assert build_intervals(func).intervals == \
            ref.build_intervals(func).intervals

    def test_dense_matches_dict_corpus(self):
        for name, func in _corpus_functions():
            dense = build_intervals(func)
            assert dense.intervals == ref.build_intervals(func).intervals, \
                name

    def test_transitions_match_point_walk_after_spilling(self):
        """Spill rewriting leaves many short ranges and holes: the
        transition-built ranges, their point masks and RANGES_BUILT
        still equal the reference's per-point walk."""
        from repro.allocator.spill import spill_everywhere

        for seed in range(8):
            func = _fuzz_func(seed, num_vars=14)
            victims = sorted(build_intervals(func).intervals)[::3]
            for f in (func, spill_everywhere(func, set(victims))):
                fast_tracer, ref_tracer = Tracer(), Tracer()
                fast = build_intervals(f, tracer=fast_tracer).intervals
                expected = ref.build_intervals(f, tracer=ref_tracer).intervals
                assert fast == expected, seed
                assert list(fast) == list(expected)
                for iv in fast.values():
                    assert iv.mask == sum(1 << p for start, end in iv.ranges
                                          for p in range(start, end + 1))
                counters = fast_tracer.report()["counters"]
                assert counters[RANGES_BUILT] == \
                    ref_tracer.report()["counters"][RANGES_BUILT]

    @pytest.mark.parametrize("seed", [0, 3, 7])
    def test_boundaries_reproduce_liveness(self, seed):
        func = _fuzz_func(seed)
        iset = build_intervals(func)
        points = iset.points
        for info in (compute_liveness(func), ref.compute_liveness(func)):
            for name in points.order:
                block = func.blocks[name]
                end = points.block_end(name)
                at_end = {v for v, iv in iset.intervals.items()
                          if iv.covers(end)}
                assert at_end == info.live_out[name], (name, "out")
                entry = points.block_entry(name)
                at_entry = {v for v, iv in iset.intervals.items()
                            if iv.covers(entry)}
                expected = set(info.live_in[name]) \
                    | {phi.target for phi in block.phis}
                assert at_entry == expected, (name, "in")

    @pytest.mark.parametrize("seed", FUZZ_SEEDS)
    def test_max_overlap_is_maxlive_fuzz(self, seed):
        func = _fuzz_func(seed)
        assert build_intervals(func).max_overlap() == maxlive(func)

    def test_max_overlap_is_maxlive_corpus(self):
        for name, func in _corpus_functions():
            assert build_intervals(func).max_overlap() == maxlive(func), name

    def test_interference_implies_intersection_corpus(self):
        for name, func in _corpus_functions():
            iset = build_intervals(func)
            graph = chaitin_interference(func)
            for u in graph.vertices:
                for v in graph.neighbors(u):
                    assert iset[u].intersects(iset[v]), (name, u, v)

    def test_ranges_built_is_backend_independent(self):
        func = _fuzz_func(1)
        dense_tracer, dict_tracer = Tracer(), Tracer()
        build_intervals(func, tracer=dense_tracer)
        ref.build_intervals(func, tracer=dict_tracer)
        dense_ranges = dense_tracer.report()["counters"][RANGES_BUILT]
        assert dense_ranges == dict_tracer.report()["counters"][RANGES_BUILT]
        assert dense_ranges > 0

    def test_interval_stats_shape(self):
        func = _fuzz_func(2)
        stats = interval_stats(func)
        assert stats["max_overlap"] == stats["maxlive"] == maxlive(func)
        assert stats["intervals"] == len(build_intervals(func))
        assert stats["ranges"] >= stats["intervals"]
        assert stats["points"] == number_points(func).total


class TestIntervalSet:
    def test_container_protocol(self):
        func = _fuzz_func(0)
        iset = build_intervals(func)
        ivs = list(iset)
        assert [iv.var for iv in ivs] == sorted(
            (iv.var for iv in ivs), key=str
        )
        some = ivs[0].var
        assert some in iset
        assert iset[some].var == some
        assert "no-such-variable" not in iset
        assert len(iset) == len(ivs)


# ----------------------------------------------------- linear scan


class TestLinearScan:
    @pytest.mark.parametrize("variant", ["classic", "second-chance"])
    @pytest.mark.parametrize("deficit", [0, 1])
    def test_corpus_assignments_certify(self, variant, deficit):
        for name, func in _corpus_functions():
            k = maxlive(func) - deficit
            if k < 2:
                continue
            try:
                result = linear_scan_allocate(func, k, variant=variant)
            except RuntimeError:
                # irreducible pressure: spilling cannot get below k —
                # the graph allocators' spill_to_pressure refuses too
                assert deficit > 0, (name, variant)
                continue
            assert allocation_errors(result) == [], (name, variant)
            diagnostics = check_allocation(result)
            errors = [d for d in diagnostics if d.severity == "error"]
            assert errors == [], (name, variant, errors)
            assert any(d.code == "INTV003" for d in diagnostics), name

    def test_second_chance_scan_matches_range_scan(self):
        """One scan round per function and k, on the corpus and fuzzed
        programs at and below Maxlive: the occupancy-mask scan assigns
        and evicts exactly like the resident-list scan over ranges."""
        from repro.allocator.spill import is_memory_slot, spill_costs
        from repro.intervals.linear_scan import _scan_second_chance

        functions = list(_corpus_functions()) + [
            (f"fuzz{seed}", _fuzz_func(seed, num_vars=14))
            for seed in range(12)]
        victims = 0
        for name, func in functions:
            iset = build_intervals(func)
            order = sorted(
                (iv for var, iv in iset.intervals.items()
                 if not is_memory_slot(var)),
                key=lambda iv: (iv.start, iv.end, str(iv.var)))
            costs = spill_costs(func)
            for k in range(max(1, maxlive(func) - 3), maxlive(func) + 1):
                expected = ref.scan_second_chance(order, k, costs)
                got = _scan_second_chance(order, k, costs, Tracer())
                assert got == expected, (name, k)
                victims += len(got[1])
        assert victims > 50

    def test_second_chance_needs_no_spill_at_maxlive(self):
        # the classic envelope can spill even at k = Maxlive; the
        # hole-aware variant must not, anywhere on the corpus
        for name, func in _corpus_functions():
            result = linear_scan_allocate(
                func, maxlive(func), variant="second-chance"
            )
            assert result.spilled == [], name

    def test_result_carries_interval_metadata(self):
        func = function_from_path(corpus_dir() / "loops.ll", function="gcd")
        result = linear_scan_allocate(func, 3)
        assert result.interval_variant == "classic"
        assert result.rounds == 1
        assert result.num_intervals >= len(result.assignment)
        assert result.max_overlap == 3

    def test_spill_rounds_reported(self):
        func = function_from_path(corpus_dir() / "loops.ll", function="gcd")
        result = linear_scan_allocate(func, 2, variant="classic")
        assert result.rounds > 1
        assert result.spilled
        assert allocation_errors(result) == []

    def test_irreducible_pressure_raises(self):
        func = function_from_path(
            corpus_dir() / "basics.ll", function="abs_diff"
        )
        with pytest.raises(RuntimeError, match="cannot be reduced"):
            linear_scan_allocate(func, 2, variant="classic")

    def test_rejects_bad_arguments(self):
        func = _fuzz_func(0)
        with pytest.raises(ValueError):
            linear_scan_allocate(func, 4, variant="no-such-variant")
        with pytest.raises(ValueError):
            linear_scan_allocate(func, 0)

    def test_non_interval_results_skip_intv_pass(self):
        from repro.allocator import chaitin_allocate

        func = _fuzz_func(0)
        result = chaitin_allocate(func, maxlive(func))
        codes = {d.code for d in check_allocation(result)}
        assert not any(c.startswith("INTV") for c in codes), codes


# ------------------------------------------------------- coalescing


class TestIntervalCoalescing:
    def test_function_coalesce_certifies_on_corpus(self):
        for name, func in _corpus_functions():
            result = function_interval_coalesce(func)
            diagnostics = check_coalescing_result(result)
            errors = [d for d in diagnostics if d.severity == "error"]
            assert errors == [], (name, errors)

    def test_graph_coalesce_certifies(self):
        import random

        from repro.challenge.generator import pressure_instance

        inst = pressure_instance(5, 6, rng=random.Random(3))
        result = interval_coalesce(inst.graph)
        assert result.strategy == "interval"
        errors = [d for d in check_coalescing_result(result, k=5)
                  if d.severity == "error"]
        assert errors == []

    def test_disjoint_intervals_do_coalesce(self):
        # gcd has copy-related variables with disjoint lifetimes: the
        # strategy must merge at least one affinity somewhere on the
        # corpus (else it is vacuous)
        merged = sum(
            len(function_interval_coalesce(func).coalesced)
            for _, func in _corpus_functions()
        )
        assert merged > 0


# ------------------------------------------------------------ engine


class TestEngineIntegration:
    def test_linear_scan_task_certifies(self):
        spec = TaskSpec(
            generator="llvm", seed=0, k=3, strategy="linear-scan",
            params={"path": "loops.ll", "function": "gcd"},
        )
        record = run_task(spec, verify=True)
        assert record["status"] == "ok"
        assert record["verification"]["status"] == "certified"
        payload = record["payload"]
        assert payload["variant"] == "classic"
        assert payload["k"] == 3 and payload["spilled"] == []

    def test_second_chance_task_certifies_with_spills(self):
        spec = TaskSpec(
            generator="llvm", seed=0, k=2, strategy="second-chance",
            params={"path": "loops.ll", "function": "gcd"},
        )
        record = run_task(spec, verify=True)
        assert record["status"] == "ok"
        assert record["verification"]["status"] == "certified"
        assert record["payload"]["spilled"]

    def test_allocation_requires_llvm_generator(self):
        spec = TaskSpec(
            generator="pressure", seed=0, k=4, strategy="linear-scan"
        )
        with pytest.raises(ValueError, match="llvm"):
            run_task(spec)

    def test_interval_strategy_task(self):
        spec = TaskSpec(generator="pressure", seed=1, k=5,
                        strategy="interval", params={"rounds": 6})
        record = run_task(spec, verify=True)
        assert record["status"] == "ok"
        assert record["verification"]["status"] == "certified"


# --------------------------------------------------------------- cli


class TestCli:
    def test_info_reports_interval_columns(self, capsys):
        from repro.cli import main

        assert main(["info", str(corpus_dir() / "loops.ll")]) == 0
        out = capsys.readouterr().out
        assert "maxovl" in out and "ivals" in out

    @pytest.mark.parametrize("allocator", ["linear-scan", "second-chance"])
    def test_allocate_linear_scan(self, capsys, allocator):
        from repro.cli import main

        assert main([
            "allocate", str(corpus_dir() / "loops.ll"),
            "--k", "4", "--allocator", allocator,
        ]) == 0
        out = capsys.readouterr().out
        assert "rounds=" in out and "max_overlap=" in out

    def test_coalesce_interval_strategy(self, capsys, tmp_path):
        import random

        from repro.challenge.format import dumps_instance
        from repro.challenge.generator import pressure_instance
        from repro.cli import main

        path = tmp_path / "inst.txt"
        path.write_text(dumps_instance(
            pressure_instance(5, 6, rng=random.Random(0), name="p0")
        ))
        assert main([
            "coalesce", str(path), "--strategy", "interval",
        ]) == 0
        assert "interval" in capsys.readouterr().out
