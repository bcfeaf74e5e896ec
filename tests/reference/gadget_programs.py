"""Programs whose interference graphs are the paper's gadgets.

The Figure 3 permutation gadget is usually presented as a bare graph;
this module grounds it in code, the way the paper's introduction
motivates it: a loop that *rotates* n values with a parallel copy at
the back edge.  Under SSA the back-edge φs form exactly the
permutation: n sources simultaneously live before the copy, n targets
after, one affinity per position — two n-cliques joined by n
affinities, the shape local conservative rules give up on
(``tests/test_gadget_programs.py`` checks the correspondence).
"""

from __future__ import annotations

from repro.ir.builder import FunctionBuilder
from repro.ir.cfg import Function


def rotation_loop(n: int, rounds_prefix: str = "") -> Function:
    """A loop rotating ``n`` live values by one position per iteration.

    ::

        x1, ..., xn = inputs
        while cond:
            (x1, ..., xn) = (x2, ..., xn, x1)   # parallel rotation
        use x1, ..., xn

    Built directly in SSA form: header φs carry the rotated values.
    """
    if n < 2:
        raise ValueError("need at least two rotated values")
    fb = FunctionBuilder(f"rotate{n}")
    entry = fb.block("entry")
    for i in range(1, n + 1):
        entry.const(f"x{i}.0")
    entry.const("c0")
    head = fb.block("head")
    # φs: xi.1 = φ(entry: xi.0, latch: x_{i+1}.1) — the rotation
    for i in range(1, n + 1):
        source = (i % n) + 1
        head.phi(
            f"x{i}.1",
            entry=f"x{i}.0",
            latch=f"x{source}.1",
        )
    head.op("cmp", "t", "x1.1", "c0").branch("t")
    fb.block("latch")
    exit_block = fb.block("exit")
    exit_block.ret(*[f"x{i}.1" for i in range(1, n + 1)])
    fb.edges(
        ("entry", "head"),
        ("head", "latch"),
        ("head", "exit"),
        ("latch", "head"),
    )
    return fb.finish()


def swap_loop() -> Function:
    """The two-value special case: the classic swap loop whose φs form
    a 2-cycle (needs a temporary when sequentialized)."""
    return rotation_loop(2)


def phi_merge_diamond(n: int) -> Function:
    """A diamond whose join merges two n-tuples through φs.

    ::

        if c:  x1..xn = ...      else:  z1..zn = ...
        y1..yn = φ(x | z);  use y1..yn

    The interference graph restricted to {x} ∪ {y} is exactly the
    Figure 3 permutation gadget: the x's form an n-clique (defined
    together, all live at the branch end), the y's form an n-clique
    (φ-targets defined in parallel), there are no x–y interferences,
    and each position carries the affinity (x_i, y_i) — likewise for
    the z side.  All 2n affinities are simultaneously coalescible
    (x_i and z_i never interfere), collapsing the graph to one
    n-clique — but one at a time, each merge builds the degree-2(n-1)
    vertex that defeats Briggs' and George's rules.
    """
    if n < 1:
        raise ValueError("need at least one value")
    fb = FunctionBuilder(f"diamond{n}")
    fb.block("entry").const("c").branch("c")
    left = fb.block("left")
    for i in range(1, n + 1):
        left.const(f"x{i}")
    right = fb.block("right")
    for i in range(1, n + 1):
        right.const(f"z{i}")
    join = fb.block("join")
    for i in range(1, n + 1):
        join.phi(f"y{i}", left=f"x{i}", right=f"z{i}")
    join.ret(*[f"y{i}" for i in range(1, n + 1)])
    fb.edges(
        ("entry", "left"),
        ("entry", "right"),
        ("left", "join"),
        ("right", "join"),
    )
    return fb.finish()
