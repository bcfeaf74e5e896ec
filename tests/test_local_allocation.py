"""Tests for local (basic-block) register allocation."""

import random

import pytest

from tests.reference.local import (
    Interval,
    belady_local_allocate,
    block_intervals,
    color_intervals,
    max_overlap,
)
from repro.ir.cfg import BasicBlock
from repro.ir.instructions import Instr


def block_of(*instrs: Instr) -> BasicBlock:
    b = BasicBlock("b")
    b.instrs = list(instrs)
    return b


def straightline(seed: int, length: int = 20, pool: int = 8) -> BasicBlock:
    rng = random.Random(seed)
    b = BasicBlock("b")
    defined = []
    for _ in range(length):
        dst = f"v{rng.randrange(pool)}"
        uses = tuple(
            rng.choice(defined) for _ in range(rng.randint(0, 2)) if defined
        )
        op = "const" if not uses else "add"
        b.instrs.append(Instr(op, (dst,), uses))
        defined.append(dst)
    return b


class TestBelady:
    def test_no_pressure_no_spills(self):
        b = block_of(
            Instr("const", ("a",), ()),
            Instr("const", ("b",), ()),
            Instr("add", ("c",), ("a", "b")),
        )
        result = belady_local_allocate(b, 3)
        assert result.spill_operations == 0

    def test_rejects_k_zero(self):
        with pytest.raises(ValueError):
            belady_local_allocate(block_of(), 0)

    def test_impossible_operand_count(self):
        b = block_of(
            Instr("const", ("a",), ()),
            Instr("const", ("b",), ()),
            Instr("const", ("c",), ()),
            Instr("f", ("d",), ("a", "b", "c")),
        )
        with pytest.raises(ValueError):
            belady_local_allocate(b, 2)

    def test_eviction_counts_reload(self):
        # three values live across a window with k=2: exactly one evict
        # + one reload
        b = block_of(
            Instr("const", ("a",), ()),
            Instr("const", ("b",), ()),
            Instr("const", ("c",), ()),      # evicts one of a, b
            Instr("add", ("d",), ("a", "b")),  # reload the evicted one
        )
        result = belady_local_allocate(b, 2)
        assert result.loads == 1

    def test_belady_picks_furthest(self):
        # with k=2 and uses ordered a (soon) then b (late), evicting b
        # is optimal: exactly one reload
        b = block_of(
            Instr("const", ("a",), ()),
            Instr("const", ("b",), ()),
            Instr("const", ("c",), ()),
            Instr("use1", ("x",), ("a",)),
            Instr("use2", ("y",), ("b",)),
        )
        result = belady_local_allocate(b, 2)
        assert result.loads <= 2  # never worse than evicting both

    def test_assignment_registers_in_range(self):
        for seed in range(10):
            b = straightline(seed)
            result = belady_local_allocate(b, 3)
            for snapshot in result.assignment:
                assert all(0 <= r < 3 for r in snapshot.values())

    def test_no_two_operands_share_register(self):
        for seed in range(10):
            b = straightline(seed)
            result = belady_local_allocate(b, 3)
            for instr, snapshot in zip(b.instrs, result.assignment):
                regs = [snapshot[v] for v in set(instr.uses) | set(instr.defs)]
                # defs may legally reuse a register freed by a dying use;
                # but distinct uses must not collide
                use_regs = [snapshot[v] for v in set(instr.uses)]
                assert len(use_regs) == len(set(use_regs))

    def test_more_registers_never_more_spills(self):
        for seed in range(8):
            b = straightline(seed, length=25, pool=10)
            spills = [
                belady_local_allocate(b, k).spill_operations
                for k in (2, 4, 8)
            ]
            assert spills[0] >= spills[1] >= spills[2]

    def test_live_out_forces_store(self):
        b = block_of(
            Instr("const", ("a",), ()),
            Instr("const", ("b",), ()),
            Instr("const", ("c",), ()),
        )
        with_live = belady_local_allocate(b, 2, live_out={"a", "b", "c"})
        assert with_live.stores >= 1


class TestIntervals:
    def test_basic_ranges(self):
        b = block_of(
            Instr("const", ("a",), ()),
            Instr("const", ("b",), ()),
            Instr("add", ("c",), ("a", "b")),
            Instr("use", (), ("c",)),
        )
        ivs = {iv.var: iv for iv in block_intervals(b)}
        assert (ivs["a"].start, ivs["a"].end) == (0, 2)
        assert (ivs["c"].start, ivs["c"].end) == (2, 3)

    def test_live_in_starts_at_zero(self):
        b = block_of(Instr("use", (), ("x",)))
        ivs = {iv.var: iv for iv in block_intervals(b)}
        assert ivs["x"].start == 0

    def test_live_out_extends_to_end(self):
        b = block_of(Instr("const", ("a",), ()))
        ivs = {iv.var: iv for iv in block_intervals(b, live_out={"a"})}
        assert ivs["a"].end == 1

    def test_max_overlap_equals_pressure(self):
        b = block_of(
            Instr("const", ("a",), ()),
            Instr("const", ("b",), ()),
            Instr("add", ("c",), ("a", "b")),
            Instr("add", ("d",), ("c", "a")),
        )
        assert max_overlap(block_intervals(b)) == 3  # a, b, c around instr 2


class TestColorIntervals:
    def test_optimal_color_count(self):
        for seed in range(10):
            b = straightline(seed)
            ivs = block_intervals(b)
            coloring = color_intervals(ivs)
            assert coloring is not None
            used = max(coloring.values(), default=-1) + 1
            assert used == max_overlap(ivs)

    def test_respects_k(self):
        ivs = [
            Interval("a", 0, 5),
            Interval("b", 1, 6),
            Interval("c", 2, 7),
        ]
        assert color_intervals(ivs, k=2) is None
        assert color_intervals(ivs, k=3) is not None

    def test_no_overlapping_same_color(self):
        for seed in range(10):
            b = straightline(seed)
            ivs = block_intervals(b)
            coloring = color_intervals(ivs)
            for i, x in enumerate(ivs):
                for y in ivs[i + 1:]:
                    if x.start <= y.end and y.start <= x.end:
                        assert coloring[x.var] != coloring[y.var] or x.var == y.var
