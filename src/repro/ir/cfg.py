"""Control-flow graph: basic blocks, edges, traversals, validation.

A :class:`Function` owns named :class:`BasicBlock`\\ s; each block holds
its φ-functions (SSA only) and ordinary instructions.  Edges are kept on
the function, with successor order preserved (it matters for
conditional branches, not for the allocator).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Dict, Iterator, List, Optional, Set, Tuple

from .instructions import Instr, Phi, Var


@dataclass
class BasicBlock:
    """A basic block: φs, then straight-line instructions."""

    name: str
    phis: List[Phi] = field(default_factory=list)
    instrs: List[Instr] = field(default_factory=list)
    #: 1-based source line of the block label (provenance); 0 = unknown.
    line: int = field(default=0, compare=False)

    def defs(self) -> Set[Var]:
        """All variables defined in the block (φ targets included)."""
        out = {phi.target for phi in self.phis}
        for instr in self.instrs:
            out.update(instr.defs)
        return out

    def __str__(self) -> str:
        lines = [f"{self.name}:"]
        lines += [f"  {phi}" for phi in self.phis]
        lines += [f"  {instr}" for instr in self.instrs]
        return "\n".join(lines)


class Function:
    """A function body: blocks plus control-flow edges.

    Blocks are identified by name; ``entry`` names the unique entry
    block.  The CFG may have critical edges — out-of-SSA translation
    splits them when needed.
    """

    def __init__(self, name: str = "f", entry: str = "entry") -> None:
        self.name = name
        self.entry = entry
        self.blocks: Dict[str, BasicBlock] = {}
        self._succs: Dict[str, List[str]] = {}
        self._preds: Dict[str, List[str]] = {}
        self.add_block(entry)
        # optional per-block static frequency (loop-depth based weights)
        self.frequency: Dict[str, float] = {}
        # source provenance: the defining file and 1-based line, set by
        # the frontends (``.ll`` lowering, the textual IR parser) so
        # diagnostics can carry real file:line anchors
        self.source_file: str = ""
        self.source_line: int = 0

    # ------------------------------------------------------------------
    # construction
    # ------------------------------------------------------------------
    def add_block(self, name: str) -> BasicBlock:
        """Create (or return the existing) block called ``name``."""
        if name not in self.blocks:
            self.blocks[name] = BasicBlock(name)
            self._succs[name] = []
            self._preds[name] = []
        return self.blocks[name]

    def add_edge(self, src: str, dst: str) -> None:
        """Add the control-flow edge ``src -> dst`` (idempotent)."""
        self.add_block(src)
        self.add_block(dst)
        if dst not in self._succs[src]:
            self._succs[src].append(dst)
            self._preds[dst].append(src)

    def remove_edge(self, src: str, dst: str) -> None:
        """Remove the edge ``src -> dst``."""
        self._succs[src].remove(dst)
        self._preds[dst].remove(src)

    # ------------------------------------------------------------------
    # queries
    # ------------------------------------------------------------------
    def successors(self, name: str) -> List[str]:
        """Successor block names in branch order."""
        return list(self._succs[name])

    def predecessors(self, name: str) -> List[str]:
        """Predecessor block names."""
        return list(self._preds[name])

    def block_names(self) -> List[str]:
        """All block names in insertion order."""
        return list(self.blocks)

    def variables(self) -> Set[Var]:
        """Every variable defined or used anywhere in the function."""
        out: Set[Var] = set()
        for block in self.blocks.values():
            for phi in block.phis:
                out.add(phi.target)
                out.update(phi.args.values())
            for instr in block.instrs:
                out.update(instr.defs)
                out.update(instr.uses)
        return out

    def moves(self) -> Iterator[Tuple[str, int, Instr]]:
        """Yield ``(block, index, instr)`` for every copy instruction."""
        for name, block in self.blocks.items():
            for i, instr in enumerate(block.instrs):
                if instr.is_move:
                    yield (name, i, instr)

    def fingerprint(self) -> Tuple[Any, ...]:
        """An exact snapshot of the code: name, entry, every block's
        φs, instructions and successors in order, and the block
        frequencies.

        Two functions have equal fingerprints iff they are the same
        code; source lines are provenance and stay out, as they stay
        out of instruction equality.
        """
        # tuple() of lists, not of generators: a tuple built from a
        # generator starts at 10 slots and is resized, which strands one
        # tuple in CPython's free list of its final size until the next
        # full collection; each verified allocation task calls this once
        return (
            self.name,
            self.entry,
            tuple([
                (
                    name,
                    tuple([
                        (phi.target, tuple(sorted(phi.args.items())))
                        for phi in block.phis
                    ]),
                    tuple([(i.op, i.defs, i.uses) for i in block.instrs]),
                    tuple(self._succs[name]),
                )
                for name, block in self.blocks.items()
            ]),
            tuple(sorted(self.frequency.items())),
        )

    def block_frequency(self, name: str) -> float:
        """Static execution frequency estimate for a block (default 1)."""
        return self.frequency.get(name, 1.0)

    # ------------------------------------------------------------------
    # traversals
    # ------------------------------------------------------------------
    def reachable(self) -> Set[str]:
        """Blocks reachable from the entry."""
        seen = {self.entry}
        stack = [self.entry]
        while stack:
            b = stack.pop()
            for s in self._succs[b]:
                if s not in seen:
                    seen.add(s)
                    stack.append(s)
        return seen

    def reachable_order(self) -> List[str]:
        """Reachable blocks in insertion order.

        ``reachable()`` returns a set whose iteration order follows
        string hashing (``PYTHONHASHSEED``); any pass whose *output*
        depends on block visit order — φ placement, affinity insertion,
        spill tie-breaking — must iterate this instead so results are
        reproducible across interpreter runs.
        """
        reachable = self.reachable()
        return [b for b in self.blocks if b in reachable]

    def postorder(self) -> List[str]:
        """Postorder over reachable blocks (iterative DFS)."""
        out: List[str] = []
        seen: Set[str] = set()
        stack: List[Tuple[str, Iterator[str]]] = [
            (self.entry, iter(self._succs[self.entry]))
        ]
        seen.add(self.entry)
        while stack:
            node, it = stack[-1]
            advanced = False
            for s in it:
                if s not in seen:
                    seen.add(s)
                    stack.append((s, iter(self._succs[s])))
                    advanced = True
                    break
            if not advanced:
                out.append(node)
                stack.pop()
        return out

    def reverse_postorder(self) -> List[str]:
        """Reverse postorder (a topological-ish order good for dataflow)."""
        return list(reversed(self.postorder()))

    # ------------------------------------------------------------------
    # edge surgery
    # ------------------------------------------------------------------
    def is_critical_edge(self, src: str, dst: str) -> bool:
        """True iff ``src`` has >1 successors and ``dst`` >1 predecessors."""
        return len(self._succs[src]) > 1 and len(self._preds[dst]) > 1

    def split_edge(self, src: str, dst: str, name: Optional[str] = None) -> str:
        """Insert an empty block on the edge ``src -> dst``.

        φ-arguments in ``dst`` are re-keyed to the new block.  Returns
        the new block's name.
        """
        if dst not in self._succs[src]:
            raise ValueError(f"no edge {src} -> {dst}")
        if name is None:
            base = f"{src}_{dst}_split"
            name = base
            i = 0
            while name in self.blocks:
                i += 1
                name = f"{base}{i}"
        self.add_block(name)
        # preserve the successor slot order of src
        idx = self._succs[src].index(dst)
        self.remove_edge(src, dst)
        self._succs[src].insert(idx, name)
        self._preds[name].append(src)
        self.add_edge(name, dst)
        for phi in self.blocks[dst].phis:
            if src in phi.args:
                phi.args[name] = phi.args.pop(src)
        self.frequency.setdefault(
            name, min(self.block_frequency(src), self.block_frequency(dst))
        )
        return name

    def split_critical_edges(self) -> List[str]:
        """Split every critical edge; return the new block names."""
        created: List[str] = []
        for src in list(self.blocks):
            for dst in list(self._succs[src]):
                if self.is_critical_edge(src, dst):
                    created.append(self.split_edge(src, dst))
        return created

    # ------------------------------------------------------------------
    # validation
    # ------------------------------------------------------------------
    def validate(self) -> None:
        """Structural checks: edge symmetry, φ args matching preds.

        Raises ``ValueError`` with a description of the first problem.
        """
        if self.entry not in self.blocks:
            raise ValueError(f"entry block {self.entry!r} missing")
        for name in self.blocks:
            for s in self._succs[name]:
                if name not in self._preds[s]:
                    raise ValueError(f"edge {name}->{s} not mirrored")
            for p in self._preds[name]:
                if name not in self._succs[p]:
                    raise ValueError(f"edge {p}->{name} not mirrored")
        for name, block in self.blocks.items():
            preds = set(self._preds[name])
            for phi in block.phis:
                if set(phi.args) != preds:
                    raise ValueError(
                        f"phi {phi} in {name} has args for "
                        f"{sorted(phi.args)} but predecessors are "
                        f"{sorted(preds)}"
                    )

    def __str__(self) -> str:
        parts = []
        for name in self.block_names():
            parts.append(str(self.blocks[name]))
            succs = self._succs[name]
            if succs:
                parts.append(f"  -> {', '.join(succs)}")
        return "\n".join(parts)
