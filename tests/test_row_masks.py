"""Whole-row mask deciders against their per-element oracles.

* :func:`repro.graphs.dense.greedy_core` (the k-core peel) leaves
  exactly what the reference elimination of ``tests/reference`` leaves;
* the row-mask allocation certificates (ALLOC001–003, INTV001–002)
  give the same diagnostics as the per-edge and per-pair loops kept in
  ``tests/reference``, on seeded mutations of corpus allocations;
* the popcount :func:`repro.ir.liveness.maxlive` equals the set-based
  walk on every corpus and fuzz function;
* :func:`repro.ir.interference.interference_rows` holds exactly the
  edges of the interference graph.
"""

import json
import random

import pytest

from repro.analysis import AnalysisContext, load_all_passes
from repro.analysis.coalescing_check import check_allocation_validity
from repro.analysis.interval_check import check_interval_allocation
from repro.frontend.corpus import corpus_paths, parse_path
from repro.frontend.lower import lower_module
from repro.graphs.dense import DenseGraph, greedy_core
from repro.graphs.generators import random_graph
from repro.graphs.graph import Graph
from repro.graphs.greedy import dense_subgraph_witness, is_greedy_k_colorable
from repro.intervals.linear_scan import linear_scan_allocate
from repro.ir.generators import random_function
from repro.ir.interference import chaitin_interference, interference_rows
from repro.ir.liveness import maxlive
from repro.ir.ssa import construct_ssa
from repro.obs import EDGES_SCANNED, WORDS_MERGED, Tracer
from tests import reference as ref
from tests.reference.perfect import max_clique_exact

load_all_passes()


#: Every corpus function, and the ``.ll`` file each comes from.
CORPUS = []
PATHS = {}
for _path in corpus_paths():
    for _func in lower_module(parse_path(_path)):
        CORPUS.append(_func)
        PATHS[_func.name] = _path


# ---------------------------------------------------------------------------
# the k-core peel
# ---------------------------------------------------------------------------

def _leftover(graph, k):
    order, _ = ref.greedy_elimination_order(graph, k)
    removed = set(order)
    return {v for v in graph.vertices if v not in removed}


def _core_names(dense, k):
    core = greedy_core(dense, k)
    return {dense.names[i] for i in range(dense.n) if core >> i & 1}


def _thresholds(graph):
    omega = len(max_clique_exact(graph))
    return sorted({0, 1, max(0, omega - 1), omega})


def _random_graph(seed, max_n=22):
    rng = random.Random(seed)
    return random_graph(rng.randint(0, max_n), rng.uniform(0.05, 0.9), rng)


@pytest.mark.parametrize("seed", range(60))
def test_greedy_core_matches_reference_elimination(seed):
    graph = _random_graph(seed)
    dense = DenseGraph.from_graph(graph)
    for k in _thresholds(graph):
        core = _core_names(dense, k)
        assert core == _leftover(graph, k), k
        assert is_greedy_k_colorable(graph, k) == (not core)


@pytest.mark.parametrize("seed", range(30))
def test_greedy_core_on_merged_graphs(seed):
    """Merges leave dead slots and rewritten rows: the peel must see
    only the live graph, like the reference on the materialized one."""
    rng = random.Random(seed)
    graph = random_graph(rng.randint(4, 20), rng.uniform(0.1, 0.6), rng)
    dense = DenseGraph.from_graph(graph)
    for _ in range(rng.randint(1, 4)):
        live = [i for i in range(dense.n) if dense.alive >> i & 1]
        pairs = [(i, j) for i in live for j in live
                 if i < j and not dense.has_edge(i, j)]
        if not pairs:
            break
        i, j = rng.choice(pairs)
        if rng.random() < 0.5:
            dense.merge_in_place(i, j)
        else:
            dense.merge_group([i, j])
    merged = dense.to_graph()
    for k in _thresholds(merged):
        assert _core_names(dense, k) == _leftover(merged, k), k


def test_greedy_core_rejects_negative_k():
    with pytest.raises(ValueError):
        greedy_core(DenseGraph.from_graph(Graph()), -1)
    with pytest.raises(ValueError):
        is_greedy_k_colorable(Graph(), -1)


def test_greedy_core_counts_words_not_edges():
    graph = _random_graph(7)
    assert len(graph)
    dense = DenseGraph.from_graph(graph)
    tracer = Tracer()
    # every degree is below n: one round removes the whole graph
    assert greedy_core(dense, len(graph), tracer=tracer) == 0
    assert tracer.counters.get(EDGES_SCANNED, 0) == 0
    assert tracer.counters.get(WORDS_MERGED, 0) > 0


def test_dense_subgraph_witness_is_the_core_in_insertion_order():
    for graph in map(_random_graph, range(20)):
        for k in _thresholds(graph):
            witness = dense_subgraph_witness(graph, k)
            left = _leftover(graph, k)
            if not left:
                assert witness is None
            else:
                assert witness == [v for v in graph.vertices if v in left]


# ---------------------------------------------------------------------------
# popcount Maxlive
# ---------------------------------------------------------------------------

def test_maxlive_matches_reference_on_corpus():
    for func in CORPUS:
        assert maxlive(func) == ref.maxlive(func), func.name


@pytest.mark.parametrize("seed", range(40))
def test_maxlive_matches_reference_on_fuzz(seed):
    func = random_function(seed)
    assert maxlive(func) == ref.maxlive(func)
    ssa = construct_ssa(random_function(seed))
    assert maxlive(ssa) == ref.maxlive(ssa)


def test_maxlive_counts_dead_phi_targets_at_the_block_top():
    from repro.ir.parser import parse_function

    func = parse_function("""func phis
entry:
  a = const
  b = const
  -> left, right
left:
  -> join
right:
  -> join
join:
  x = phi(left: a, right: b)
  y = phi(left: b, right: a)
  z = phi(left: a, right: a)
  ret a
""")
    # {a} live into the join plus three parallel, never-used φ-targets
    assert maxlive(func) == ref.maxlive(func) == 4


# ---------------------------------------------------------------------------
# interference rows
# ---------------------------------------------------------------------------

def test_interference_rows_hold_the_graph_edges():
    for func in CORPUS[:8] + [random_function(s) for s in range(10)]:
        variables, rows = interference_rows(func)
        graph = chaitin_interference(func, weighted=False)
        assert variables == list(graph.vertices)
        from_rows = {
            frozenset((variables[i], variables[j]))
            for i, row in enumerate(rows)
            for j in range(len(variables)) if row >> j & 1
        }
        assert from_rows == {frozenset(e) for e in graph.edges()}


# ---------------------------------------------------------------------------
# row-mask allocation certificates against the per-edge oracles
# ---------------------------------------------------------------------------

def _key(diag):
    return (diag.code, diag.severity, diag.where, diag.message,
            json.dumps(diag.detail, sort_keys=True, default=str))


def assert_matches_oracle(result):
    """The row-mask passes give the oracle's diagnostics (as sorted
    lists) on ``result``."""
    ctx = AnalysisContext(k=result.k)
    mine = (list(check_allocation_validity(result, ctx))
            + list(check_interval_allocation(result, ctx)))
    ctx = AnalysisContext(k=result.k)
    oracle = (list(ref.check_allocation_validity(result, ctx))
              + list(ref.check_interval_allocation(result, ctx)))
    assert sorted(map(_key, mine)) == sorted(map(_key, oracle))
    return mine


def _allocations():
    """Both linear-scan variants at k = Maxlive and Maxlive - 1 over a
    spread of corpus functions, chacha_mix included."""
    out = []
    for func in CORPUS:
        ml = maxlive(func)
        for variant in ("classic", "second-chance"):
            for k in sorted({ml, max(2, ml - 1)}):
                out.append((func.name, variant, k))
    return out


ALLOCATIONS = _allocations()


def _allocate(name, variant, k):
    # a fresh lowering: the allocator sets block frequencies on its input
    (func,) = [f for f in lower_module(parse_path(PATHS[name]))
               if f.name == name]
    return linear_scan_allocate(func, k, variant=variant)


def _register_vars(result):
    """Register-assigned variables with a register-assigned neighbour."""
    from repro.allocator.spill import is_memory_slot

    graph = chaitin_interference(result.function, weighted=False)
    held = {v for v in result.assignment if not is_memory_slot(v)}
    return sorted(v for v in held if graph.neighbors_view(v) & held)


@pytest.mark.parametrize("case", range(len(ALLOCATIONS)))
def test_healthy_allocations_match_oracle(case):
    result = _allocate(*ALLOCATIONS[case])
    mine = assert_matches_oracle(result)
    assert not [d for d in mine if d.severity == "error"]


@pytest.mark.parametrize("case", [0, 5, len(ALLOCATIONS) - 1])
def test_interval_pass_charges_row_bits_and_register_pairs(case):
    """One budget step per non-slot row bit, one per same-register pair
    whose first member has an interval, and one for INTV003."""
    from repro.allocator.spill import is_memory_slot
    from repro.budget import Budget
    from repro.intervals.model import build_intervals

    result = _allocate(*ALLOCATIONS[case])
    variables, rows = interference_rows(result.function)
    nonslot = sum(1 << i for i, v in enumerate(variables)
                  if not is_memory_slot(v))
    row_bits = sum((rows[i] & nonslot).bit_count()
                   for i in range(len(variables)) if nonslot >> i & 1)
    intervals = build_intervals(result.function).intervals
    by_register = {}
    for var, register in result.assignment.items():
        if not is_memory_slot(var):
            by_register.setdefault(register, []).append(var)
    pairs = sum(len(members) - n
                for members in map(sorted, by_register.values())
                for n, var in enumerate(members, 1) if var in intervals)
    ctx = AnalysisContext(k=result.k, budget=Budget())
    list(check_interval_allocation(result, ctx))
    assert ctx.budget.steps == row_bits + pairs + 1
    ctx = AnalysisContext(k=result.k, budget=Budget())
    list(check_allocation_validity(result, ctx))
    assert ctx.budget.steps == row_bits


@pytest.mark.parametrize("seed", range(24))
def test_register_clash_mutations_match_oracle(seed):
    rng = random.Random(seed)
    result = _allocate(*rng.choice(ALLOCATIONS))
    names = _register_vars(result)
    for _ in range(rng.randint(1, 4)):
        u, v = rng.sample(names, 2)
        result.assignment[v] = result.assignment[u]
    mine = assert_matches_oracle(result)
    if seed % 3 == 0:
        # register values the range check flags are still compared
        result.assignment[rng.choice(names)] = result.k + rng.randint(0, 3)
        assert_matches_oracle(result)
    assert mine


@pytest.mark.parametrize("seed", range(24))
def test_unassigned_mutations_match_oracle(seed):
    rng = random.Random(1000 + seed)
    result = _allocate(*rng.choice(ALLOCATIONS))
    names = _register_vars(result)
    # several holes, so some edges lose both endpoints' registers
    for v in rng.sample(names, min(len(names), rng.randint(1, 6))):
        del result.assignment[v]
    mine = assert_matches_oracle(result)
    assert any(d.code == "ALLOC003" for d in mine)


@pytest.mark.parametrize("seed", range(24))
def test_interval_shrink_mutations_match_oracle(seed, monkeypatch):
    import repro.intervals.model as model
    from repro.intervals.model import IntervalSet, LiveInterval

    rng = random.Random(2000 + seed)
    result = _allocate(*rng.choice(ALLOCATIONS))
    real = model.build_intervals
    intervals = real(result.function).intervals
    shrunk_ranges = {}
    for var in rng.sample(sorted(intervals), rng.randint(1, 3)):
        ranges = intervals[var].ranges
        if len(ranges) > 1 and rng.random() < 0.5:
            shrunk_ranges[var] = ranges[:-1]
        elif rng.random() < 0.5:
            shrunk_ranges[var] = ((ranges[0][0], ranges[0][0]),)
        else:
            shrunk_ranges[var] = ()

    def shrunk(func, *args, **kwargs):
        iset = real(func, *args, **kwargs)
        patched = dict(iset.intervals)
        for var, ranges in shrunk_ranges.items():
            patched[var] = LiveInterval(var=var, ranges=ranges)
        return IntervalSet(points=iset.points, intervals=patched)

    monkeypatch.setattr(model, "build_intervals", shrunk)
    assert_matches_oracle(result)
