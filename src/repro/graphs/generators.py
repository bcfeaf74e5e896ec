"""Graph generators used by tests, examples, and benchmarks.

Includes the paper's own gadgets:

* :func:`permutation_gadget` — Figure 3 (left): the interference/affinity
  pattern of a parallel permutation of n values, on which local
  conservative rules (Briggs, George) fail while simultaneous coalescing
  is safe;
* :func:`incremental_trap_gadget` — Figure 3 (right): a graph that stays
  greedy-3-colorable if *both* affinities (a, b) and (a, c) are
  coalesced, but not if only one is;
* :func:`augment_with_clique` — Property 2: add a p-clique connected to
  everything, lifting k-colourability/chordality/greedy-k-colorability
  from k to k + p.

Plus standard random families (Erdős–Rényi, random chordal via subtrees
of a random tree, random interval graphs).
"""

from __future__ import annotations

import random
from typing import Dict, List, Optional, Tuple

from .graph import Graph
from .interference import InterferenceGraph


def resolve_rng(
    rng: Optional[random.Random],
    seed: Optional[int],
    who: str,
) -> random.Random:
    """Resolve the ``rng``/``seed`` pair every random generator takes.

    Exactly one of the two must be given.  The generators used to fall
    back to ``random.Random(0)`` silently, which made two "independent"
    corpus shards generate *identical* instances — a footgun the
    :mod:`repro.engine` task specs must never hit, so the default is
    now an error rather than a fixed seed.
    """
    if rng is not None:
        if seed is not None:
            raise ValueError(f"{who}: pass either rng= or seed=, not both")
        return rng
    if seed is None:
        raise ValueError(
            f"{who}: pass rng= or seed= explicitly (the old silent "
            "random.Random(0) default made independent corpora identical)"
        )
    return random.Random(seed)


def random_graph(
    n: int,
    p: float,
    rng: Optional[random.Random] = None,
    prefix: str = "v",
    seed: Optional[int] = None,
) -> Graph:
    """Erdős–Rényi G(n, p) over vertices ``prefix0 .. prefix{n-1}``.

    Randomness must be explicit: pass ``rng=`` or ``seed=`` (see
    :func:`resolve_rng`).
    """
    rng = resolve_rng(rng, seed, "random_graph")
    g = Graph(vertices=[f"{prefix}{i}" for i in range(n)])
    names = list(g.vertices)
    for i in range(n):
        for j in range(i + 1, n):
            if rng.random() < p:
                g.add_edge(names[i], names[j])
    return g


def random_chordal_graph(
    n: int,
    max_clique: int,
    rng: Optional[random.Random] = None,
    prefix: str = "v",
    seed: Optional[int] = None,
) -> Graph:
    """A random chordal graph as the intersection graph of subtrees.

    Builds a random tree with ``2 n`` nodes and, for each vertex, grows a
    random connected subtree; two vertices are adjacent iff their
    subtrees intersect (the Golumbic Thm 4.8 characterization, which is
    also how SSA live ranges sit on the dominance tree).  ``max_clique``
    caps how many subtrees may cover one tree node, bounding ω(G).
    Randomness must be explicit: pass ``rng=`` or ``seed=``.
    """
    rng = resolve_rng(rng, seed, "random_chordal_graph")
    if n == 0:
        return Graph()
    t = max(1, 2 * n)
    tree_adj: Dict[int, List[int]] = {0: []}
    for node in range(1, t):
        parent = rng.randrange(node)
        tree_adj.setdefault(node, []).append(parent)
        tree_adj[parent].append(node)
    load = [0] * t  # how many subtrees cover each tree node
    subtrees: List[List[int]] = []
    for _ in range(n):
        candidates = [x for x in range(t) if load[x] < max_clique]
        if not candidates:
            subtrees.append([])
            continue
        root = rng.choice(candidates)
        nodes = {root}
        frontier = [root]
        size = rng.randint(1, max(1, t // 3))
        while frontier and len(nodes) < size:
            x = frontier.pop(rng.randrange(len(frontier)))
            for y in tree_adj[x]:
                if y not in nodes and load[y] < max_clique and rng.random() < 0.7:
                    nodes.add(y)
                    frontier.append(y)
        for x in nodes:
            load[x] += 1
        subtrees.append(sorted(nodes))
    g = Graph(vertices=[f"{prefix}{i}" for i in range(n)])
    for i in range(n):
        si = set(subtrees[i])
        for j in range(i + 1, n):
            if si & set(subtrees[j]):
                g.add_edge(f"{prefix}{i}", f"{prefix}{j}")
    return g


def random_interval_graph(
    n: int,
    span: int = 100,
    max_len: int = 20,
    rng: Optional[random.Random] = None,
    prefix: str = "v",
    seed: Optional[int] = None,
) -> Graph:
    """A random interval graph (a chordal subclass; models straight-line
    code live ranges).  Randomness must be explicit: ``rng=`` or
    ``seed=``."""
    rng = resolve_rng(rng, seed, "random_interval_graph")
    intervals: List[Tuple[int, int]] = []
    for _ in range(n):
        a = rng.randrange(span)
        b = min(span, a + rng.randint(1, max_len))
        intervals.append((a, b))
    g = Graph(vertices=[f"{prefix}{i}" for i in range(n)])
    for i in range(n):
        ai, bi = intervals[i]
        for j in range(i + 1, n):
            aj, bj = intervals[j]
            if ai < bj and aj < bi:
                g.add_edge(f"{prefix}{i}", f"{prefix}{j}")
    return g


def cycle_graph(n: int, prefix: str = "c") -> Graph:
    """The n-cycle (chordless for n ≥ 4; the canonical non-chordal graph)."""
    g = Graph(vertices=[f"{prefix}{i}" for i in range(n)])
    for i in range(n):
        g.add_edge(f"{prefix}{i}", f"{prefix}{(i + 1) % n}")
    return g


def complete_graph(n: int, prefix: str = "k") -> Graph:
    """The complete graph K_n."""
    g = Graph(vertices=[f"{prefix}{i}" for i in range(n)])
    names = list(g.vertices)
    for i in range(n):
        for j in range(i + 1, n):
            g.add_edge(names[i], names[j])
    return g


def augment_with_clique(graph: Graph, p: int, prefix: str = "aug") -> Graph:
    """Property 2's construction: add a clique of ``p`` new vertices, each
    adjacent to every original vertex.

    Lifts: k-colourable ↔ (k+p)-colourable, chordal ↔ chordal, and
    greedy-k-colorable ↔ greedy-(k+p)-colorable.
    """
    g = graph.copy()
    new = [f"{prefix}{i}" for i in range(p)]
    for name in new:
        if name in graph:
            raise ValueError(f"augmentation vertex {name!r} already present")
    originals = list(graph.vertices)
    for i, name in enumerate(new):
        g.add_vertex(name)
        for other in new[:i]:
            g.add_edge(name, other)
        for v in originals:
            g.add_edge(name, v)
    return g


# ----------------------------------------------------------------------
# paper gadgets (Figure 3)
# ----------------------------------------------------------------------
def permutation_gadget(n: int) -> InterferenceGraph:
    """Figure 3 (left), generalized from 4 to ``n``.

    A parallel permutation of ``n`` values: sources ``u1..un`` are
    simultaneously live before the copies (an n-clique), targets
    ``v1..vn`` simultaneously live after (another n-clique), and each
    move contributes the affinity ``(ui, vi)``.

    Coalescing all ``n`` moves simultaneously yields K_n — fine for any
    k ≥ n.  But coalescing one move at a time creates a vertex of degree
    2(n-1) (for n = 4 and k = 6, exactly the paper's example), which is
    where degree-based local rules give up once the neighbours' own
    degrees are ≥ k; see :func:`padded_permutation_gadget`.
    """
    us = [f"u{i}" for i in range(1, n + 1)]
    vs = [f"v{i}" for i in range(1, n + 1)]
    g = InterferenceGraph(vertices=us + vs)
    for i in range(n):
        for j in range(i + 1, n):
            g.add_edge(us[i], us[j])
            g.add_edge(vs[i], vs[j])
    for i in range(n):
        g.add_affinity(us[i], vs[i])
    return g


def padded_permutation_gadget(n: int, k: Optional[int] = None) -> InterferenceGraph:
    """The Figure 3 scenario completed with the "other vertices not shown".

    Starting from :func:`permutation_gadget`, attach degree-1 padding
    vertices so every ``ui``/``vi`` reaches degree ``k`` (default
    ``k = 2(n-1)``).  Then, with ``k`` registers:

    * coalescing all ``n`` moves at once keeps the graph
      greedy-k-colorable;
    * coalescing any single move produces a merged vertex with 2(n-1)
      neighbours, all of degree ≥ k, so both Briggs' and George's tests
      refuse it — even though the merge is actually safe (the
      brute-force "merge and re-check greedy-k-colorability" test
      accepts it).
    """
    if k is None:
        k = 2 * (n - 1)
    g = permutation_gadget(n)
    pad = 0
    for v in list(g.vertices):
        while g.degree(v) < k:
            g.add_edge(v, f"pad{pad}")
            pad += 1
    return g


def incremental_trap_gadget() -> InterferenceGraph:
    """Figure 3 (right): greedy-3-colorable; stays so if affinities
    (a, b) and (a, c) are *both* coalesced, but not if only one is.

    The paper asserts the existence of such a graph; this 7-vertex
    witness was found by exhaustive search over graphs on {a, b, c} plus
    four helpers (with a–b, a–c, b–c non-edges so that both coalescings
    are simultaneously legal) and is verified in the test suite:

    * the base graph is greedy-3-colorable;
    * merging only {a, b} — or only {a, c} — leaves a subgraph in which
      every vertex has degree ≥ 3, so the greedy scheme gets stuck;
    * merging both collapses b's and c's parallel edges into the common
      neighbours, and the elimination goes through again.

    This is the incremental trap: a conservative one-affinity-at-a-time
    strategy refuses both moves, yet coalescing the *set* is safe —
    motivating the "affinities obtained by transitivity" remark.
    """
    g = InterferenceGraph(vertices=["a", "b", "c", "p", "q", "r", "s"])
    edges = [
        ("a", "r"), ("a", "s"),
        ("b", "p"), ("b", "q"), ("b", "s"),
        ("c", "p"), ("c", "q"), ("c", "r"),
        ("p", "q"), ("p", "r"), ("p", "s"),
    ]
    for x, y in edges:
        g.add_edge(x, y)
    g.add_affinity("a", "b")
    g.add_affinity("a", "c")
    return g
