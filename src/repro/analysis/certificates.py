"""Certificate verifiers: PEOs, greedy elimination orders, colorings.

The paper's positive results all come with *witnesses* — a perfect
elimination ordering certifies chordality, a Chaitin elimination order
certifies greedy-k-colorability (§2.2), a coloring certifies
k-colorability — and these verifiers check the witness against its
graph **by the definition**, never by trusting the algorithm that
produced it:

* :func:`verify_peo` — the order is a permutation of the vertex set
  (``CERT001``) and every vertex's later neighbours form a clique
  (``CERT002``);
* :func:`verify_elimination_order` — the order is a permutation
  (``CERT003``), every eliminated vertex had residual degree < k at
  its turn (``CERT004``), and the graph is fully eliminated
  (``CERT005``).  The last two are the row walk
  :func:`verify_elimination_rounds`, the one elimination-witness
  checker, which ``COAL004`` also runs on its quotient's peel rounds;
* :func:`verify_coloring_cert` — every vertex is colored
  (``CERT006``), colors lie in ``0..k-1`` (``CERT007``), and no edge
  is monochromatic (``CERT008``).

Each verifier is also registered as a ``certificate`` pass whose
subject is a :class:`Certificate` (a graph plus a typed witness), so
the registry/runner machinery, obs spans, and the CLI pass catalog see
certificates like any other checked object.  All three thread the
:class:`~repro.budget.Budget` of the context — elimination-order
verification on large quotient graphs is the heavy part of
campaign-time re-certification.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterator, List, Mapping, Optional, Sequence

from ..graphs.dense import DenseGraph
from ..graphs.graph import Graph, Vertex
from .diagnostics import Diagnostic
from .registry import AnalysisContext, analysis_pass

__all__ = [
    "Certificate",
    "verify_peo",
    "verify_elimination_order",
    "verify_elimination_rounds",
    "verify_coloring_cert",
]

#: Witness kinds a :class:`Certificate` may carry.
CERTIFICATE_KINDS = ("peo", "elimination", "coloring")


@dataclass
class Certificate:
    """A graph plus a typed witness, checkable by the certificate passes.

    ``kind`` selects the verifier: ``"peo"`` and ``"elimination"``
    expect ``order`` (a vertex sequence), ``"coloring"`` expects
    ``coloring`` (a vertex → color mapping).  ``k`` is the register
    bound for elimination orders and colorings (ignored for PEOs).
    """

    kind: str
    graph: Graph
    k: int = 0
    order: Sequence[Vertex] = field(default_factory=list)
    coloring: Mapping[Vertex, int] = field(default_factory=dict)

    def __post_init__(self) -> None:
        if self.kind not in CERTIFICATE_KINDS:
            raise ValueError(
                f"unknown certificate kind {self.kind!r} "
                f"(one of {CERTIFICATE_KINDS})"
            )


def _permutation_problems(
    graph: Graph,
    order: Sequence[Vertex],
    code: str,
    obj: str = "",
) -> List[Diagnostic]:
    """Diagnostics for an order that is not a permutation of V(G)."""
    out: List[Diagnostic] = []
    seen: set = set()
    for v in order:
        if v in seen:
            out.append(Diagnostic(
                code, "error",
                f"vertex {v} appears more than once in the order",
                where=str(v), obj=obj, detail={"vertex": str(v)},
            ))
        seen.add(v)
        if v not in graph:
            out.append(Diagnostic(
                code, "error",
                f"order mentions {v}, which is not a graph vertex",
                where=str(v), obj=obj, detail={"vertex": str(v)},
            ))
    for v in graph.vertices:
        if v not in seen:
            out.append(Diagnostic(
                code, "error",
                f"graph vertex {v} is missing from the order",
                where=str(v), obj=obj, detail={"vertex": str(v)},
            ))
    return out


def verify_peo(
    graph: Graph,
    order: Sequence[Vertex],
    ctx: Optional[AnalysisContext] = None,
) -> List[Diagnostic]:
    """Verify a perfect elimination ordering by the definition.

    For each vertex, its neighbours later in the order must form a
    clique.  Quadratic in the later-neighbourhood sizes but entirely
    independent of the MCS machinery it certifies.
    """
    ctx = ctx or AnalysisContext()
    obj = ctx.obj
    out = _permutation_problems(graph, order, "CERT001", obj)
    if out:
        return out
    position = {v: i for i, v in enumerate(order)}
    for v in order:
        ctx.check_budget()
        later = [u for u in graph.neighbors_view(v) if position[u] > position[v]]
        later.sort(key=position.__getitem__)
        for i, a in enumerate(later):
            for b in later[i + 1:]:
                ctx.check_budget()
                if not graph.has_edge(a, b):
                    out.append(Diagnostic(
                        "CERT002", "error",
                        f"later neighbours {a} and {b} of {v} are not "
                        "adjacent (order is not a PEO)",
                        where=str(v), obj=obj,
                        detail={"vertex": str(v),
                                "witness": [str(a), str(b)]},
                    ))
    return out


def verify_elimination_order(
    graph: Graph,
    order: Sequence[Vertex],
    k: int,
    ctx: Optional[AnalysisContext] = None,
) -> List[Diagnostic]:
    """Verify a Chaitin elimination order as a greedy-k-colorability
    witness: a permutation check (``CERT003``), then the peeling is
    simulated on rows by :func:`verify_elimination_rounds`, one vertex
    per round."""
    ctx = ctx or AnalysisContext()
    seen: set = set()
    for v in order:
        if v in seen or v not in graph:
            return [Diagnostic(
                "CERT003", "error",
                f"elimination order is not a permutation "
                f"({v} duplicated or foreign)",
                where=str(v), obj=ctx.obj, detail={"vertex": str(v)},
            )]
        seen.add(v)
    dense = graph.dense()
    rounds = [1 << dense.index[v] for v in order]
    return verify_elimination_rounds(dense, rounds, k, ctx)


def verify_elimination_rounds(
    dense: DenseGraph,
    rounds: Sequence[int],
    k: int,
    ctx: Optional[AnalysisContext] = None,
) -> List[Diagnostic]:
    """Verify an elimination witness on the rows of ``dense``.

    ``rounds`` lists bitmasks of distinct live vertices, removed round
    by round (a sequential order is one vertex per round, a
    :func:`~repro.graphs.dense.greedy_peel` witness many).  Every vertex
    of a round must have ``popcount(adj[v] & live) < k`` over the
    vertices still live when its round begins (``CERT004``), and nothing
    may be left once the rounds are done (``CERT005``).  Removing a
    round one vertex at a time only lowers the later members' degrees,
    so a checked round is a valid stretch of Chaitin's sequential
    scheme.  One budget step per eliminated vertex, charged once per
    round.
    """
    ctx = ctx or AnalysisContext()
    obj = ctx.obj
    adj, names = dense.adj, dense.names
    live = dense.alive
    for batch in rounds:
        ctx.check_budget(batch.bit_count())
        rest = batch
        while rest:
            low = rest & -rest
            rest ^= low
            v = low.bit_length() - 1
            degree = (adj[v] & live).bit_count()
            if degree >= k:
                return [Diagnostic(
                    "CERT004", "error",
                    f"{names[v]} eliminated with residual degree {degree} "
                    f">= k={k}",
                    where=str(names[v]), obj=obj,
                    detail={"vertex": str(names[v]), "degree": degree,
                            "k": k},
                )]
        live &= ~batch
    if live:
        leftover = sorted(
            str(v) for i, v in enumerate(names) if live >> i & 1)
        return [Diagnostic(
            "CERT005", "error",
            f"elimination incomplete: {len(leftover)} vertices remain "
            "(every one of degree >= k, a non-colorability witness)",
            obj=obj, detail={"remaining": leftover[:32], "k": k},
        )]
    return []


def verify_coloring_cert(
    graph: Graph,
    coloring: Mapping[Vertex, int],
    k: int,
    ctx: Optional[AnalysisContext] = None,
) -> List[Diagnostic]:
    """Verify a k-coloring: total, in-palette, properly colored."""
    ctx = ctx or AnalysisContext()
    obj = ctx.obj
    out: List[Diagnostic] = []
    for v in graph.vertices:
        ctx.check_budget()
        if v not in coloring:
            out.append(Diagnostic(
                "CERT006", "error",
                f"vertex {v} has no color",
                where=str(v), obj=obj, detail={"vertex": str(v)},
            ))
    for v, c in coloring.items():
        if not isinstance(c, int) or not 0 <= c < k:
            out.append(Diagnostic(
                "CERT007", "error",
                f"{v} colored {c!r}, outside the palette 0..{k - 1}",
                where=str(v), obj=obj,
                detail={"vertex": str(v), "color": repr(c), "k": k},
            ))
    for u, v in graph.edges():
        ctx.check_budget()
        if u in coloring and v in coloring and coloring[u] == coloring[v]:
            a, b = sorted((str(u), str(v)))
            out.append(Diagnostic(
                "CERT008", "error",
                f"edge {a} -- {b} is monochromatic (color {coloring[u]})",
                where=f"{a}--{b}", obj=obj,
                detail={"edge": [a, b], "color": coloring[u]},
            ))
    return out


# ----------------------------------------------------------------------
# registry adapters: certificates as first-class checked subjects
# ----------------------------------------------------------------------
@analysis_pass("peo-certificate", "certificate", codes=("CERT001", "CERT002"))
def check_peo_certificate(
    cert: Certificate, ctx: AnalysisContext
) -> Iterator[Diagnostic]:
    """Verify a PEO witness carried by a :class:`Certificate`."""
    if cert.kind == "peo":
        yield from verify_peo(cert.graph, cert.order, ctx)


@analysis_pass(
    "elimination-certificate", "certificate",
    codes=("CERT003", "CERT004", "CERT005"),
)
def check_elimination_certificate(
    cert: Certificate, ctx: AnalysisContext
) -> Iterator[Diagnostic]:
    """Verify a greedy elimination-order witness."""
    if cert.kind == "elimination":
        k = cert.k or ctx.k
        yield from verify_elimination_order(cert.graph, cert.order, k, ctx)


@analysis_pass(
    "coloring-certificate", "certificate",
    codes=("CERT006", "CERT007", "CERT008"),
)
def check_coloring_certificate(
    cert: Certificate, ctx: AnalysisContext
) -> Iterator[Diagnostic]:
    """Verify a k-coloring witness."""
    if cert.kind == "coloring":
        k = cert.k or ctx.k
        yield from verify_coloring_cert(cert.graph, cert.coloring, k, ctx)
