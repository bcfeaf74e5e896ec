"""Out-of-SSA translation (φ elimination).

φ-functions are not machine code; going out of SSA replaces them with
register-to-register moves (Section 1: this introduces exactly the moves
that coalescing then tries to remove — an *aggressive coalescing*
problem, since no register constraint applies at this stage).

The translation here is the classical, correctness-first one:

1. split critical edges;
2. for each CFG edge into a φ-block, gather the *parallel copy*
   ``(target_i <- arg_i)`` and sequentialize it, inserting a fresh
   temporary per value cycle (handles the swap and lost-copy problems);
3. drop the φs.

``phi_webs`` exposes the dual view used by coalescing: the equivalence
classes of variables connected through φs, which classical out-of-SSA
algorithms try to place in a single name (aggressive coalescing of the
φ affinities).
"""

from __future__ import annotations

from typing import Dict, Iterable, List, Set, Tuple

from .cfg import Function
from .instructions import Var, move
from .ssa import _copy_function

_TERMINATOR_OPS = frozenset({"br", "cbr", "jmp", "ret", "switch"})


def sequentialize_parallel_copy(
    pairs: Iterable[Tuple[Var, Var]],
    fresh: "callable",
) -> List[Tuple[Var, Var]]:
    """Order a parallel copy into sequential moves.

    ``pairs`` are ``(dst, src)`` with all dsts distinct.  Copies whose
    destination is not read by another pending copy are emitted first;
    remaining value cycles are broken by copying one cycle member into a
    fresh temporary obtained from ``fresh()``.
    """
    pending: Dict[Var, Var] = {}
    for dst, src in pairs:
        if dst in pending:
            raise ValueError(f"duplicate destination {dst!r} in parallel copy")
        if dst != src:
            pending[dst] = src
    emitted: List[Tuple[Var, Var]] = []
    while pending:
        sources = set(pending.values())
        ready = [d for d in pending if d not in sources]
        if ready:
            for d in ready:
                emitted.append((d, pending.pop(d)))
            continue
        # only cycles remain: break one
        d = next(iter(pending))
        temp = fresh()
        emitted.append((temp, d))
        for k, v in list(pending.items()):
            if v == d:
                pending[k] = temp
    return emitted


def eliminate_phis(func: Function, temp_prefix: str = "ssa_t") -> Function:
    """Return a φ-free copy of ``func`` with moves on incoming edges.

    Critical edges are split first so each parallel copy has a unique
    edge-block to live in.  The returned function has the same observable
    behaviour; every inserted instruction is a ``mov``, i.e. an affinity
    for the coalescer.
    """
    out = _copy_function(func)
    out.split_critical_edges()
    counter = [0]

    def fresh() -> Var:
        counter[0] += 1
        return f"{temp_prefix}{counter[0]}"

    reachable = out.reachable()
    for name in list(out.blocks):
        block = out.blocks[name]
        if not block.phis or name not in reachable:
            block.phis = []
            continue
        for pred in out.predecessors(name):
            pairs = [
                (phi.target, phi.args[pred])
                for phi in block.phis
                if pred in phi.args
            ]
            moves = sequentialize_parallel_copy(pairs, fresh)
            if moves:
                _insert_moves_at_end(out, pred, moves)
        block.phis = []
    return out


def _insert_moves_at_end(func: Function, block_name: str, moves: List[Tuple[Var, Var]]) -> None:
    """Insert moves at the end of a block, before any terminator."""
    instrs = func.blocks[block_name].instrs
    cut = len(instrs)
    if instrs and instrs[-1].op in _TERMINATOR_OPS:
        cut -= 1
    instrs[cut:cut] = [move(dst, src) for dst, src in moves]


def isolate_phis(func: Function, temp_prefix: str = "iso") -> Function:
    """Sreedhar-style φ isolation (conventional SSA / "Method I").

    Every φ resource gets its own copy: the target ``t`` becomes a
    fresh ``t'`` defined by the φ and copied to ``t`` right after the
    φ block's φs; every argument ``a`` is copied to a fresh ``a'`` at
    the end of its predecessor and the φ reads ``a'``.  After this, the
    φ-webs are *interference-free by construction* (each primed name
    lives only across the φ boundary), so the φ can be dropped by
    renaming the web to one name.

    This inserts the *maximum* number of copies — the paper's framing
    of classical out-of-SSA as an aggressive-coalescing opportunity:
    compare ``count_moves(isolate_phis(f))`` against
    ``count_moves(eliminate_phis(f))`` and against what aggressive
    coalescing removes afterwards.
    """
    out = _copy_function(func)
    out.split_critical_edges()
    counter = [0]

    def fresh() -> Var:
        counter[0] += 1
        return f"{temp_prefix}{counter[0]}"

    reachable = out.reachable()
    for name in list(out.blocks):
        block = out.blocks[name]
        if not block.phis or name not in reachable:
            block.phis = []
            continue
        target_copies: List[Tuple[Var, Var]] = []
        pred_copies: dict = {p: [] for p in out.predecessors(name)}
        for phi in block.phis:
            primed_target = fresh()
            target_copies.append((phi.target, primed_target))
            phi.target = primed_target
            for pred in list(phi.args):
                primed_arg = fresh()
                pred_copies[pred].append((primed_arg, phi.args[pred]))
                phi.args[pred] = primed_arg
        for pred, pairs in pred_copies.items():
            if pairs:
                _insert_moves_at_end(out, pred, pairs)
        # copies from primed φ targets go right at the top of the block
        block.instrs[0:0] = [move(dst, src) for dst, src in target_copies]
    # now each φ web {t', a1', ..., an'} is interference-free: collapse
    # it to a single name and drop the φ
    renaming: dict = {}
    for name in list(out.blocks):
        block = out.blocks[name]
        for phi in block.phis:
            web_name = phi.target
            for arg in phi.args.values():
                renaming[arg] = web_name
        block.phis = []
    if renaming:
        for block in out.blocks.values():
            block.instrs = [i.renamed(renaming) for i in block.instrs]
    return out


def count_moves(func: Function, weighted: bool = False) -> float:
    """Number (or frequency-weighted cost) of copy instructions."""
    total = 0.0
    for name, _, _ in func.moves():
        total += func.block_frequency(name) if weighted else 1.0
    return total


def phi_webs(func: Function) -> List[Set[Var]]:
    """The φ-webs: variables transitively connected through φs.

    Classical out-of-SSA with minimal copies tries to assign each web a
    single name — exactly the aggressive coalescing problem on the φ
    affinities (Section 3).  Returns only webs of size ≥ 2.
    """
    parent: Dict[Var, Var] = {}

    def find(v: Var) -> Var:
        parent.setdefault(v, v)
        while parent[v] != v:
            parent[v] = parent[parent[v]]
            v = parent[v]
        return v

    def union(a: Var, b: Var) -> None:
        ra, rb = find(a), find(b)
        if ra != rb:
            parent[ra] = rb

    for block in func.blocks.values():
        for phi in block.phis:
            for v in phi.args.values():
                union(phi.target, v)
    webs: Dict[Var, Set[Var]] = {}
    for v in parent:
        webs.setdefault(find(v), set()).add(v)
    return [w for w in webs.values() if len(w) >= 2]
