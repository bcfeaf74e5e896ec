"""Tests for the observability layer (repro.obs) and the report CLI."""

import json
import time

import pytest

from repro.challenge.format import dump_instance
from repro.challenge.generator import pressure_instance
from repro.cli import main
from repro.coalescing.conservative import conservative_coalesce
from repro.obs import (
    NULL_TRACER,
    NullTracer,
    Tracer,
    as_report,
    csv_rows,
    merged_report,
    to_csv,
    to_json,
)
from tests import allocation_errors


# ---------------------------------------------------------------- tracer core

def test_counter_aggregation():
    t = Tracer()
    t.count("a")
    t.count("a")
    t.count("b", 2.5)
    assert t.counters == {"a": 2, "b": 2.5}


def test_span_nesting_builds_slash_paths():
    t = Tracer()
    with t.span("outer"):
        with t.span("inner"):
            pass
        with t.span("inner"):
            pass
    with t.span("outer"):
        pass
    spans = t.spans()
    assert spans["outer"]["calls"] == 2
    assert spans["outer/inner"]["calls"] == 2
    assert spans["outer"]["seconds"] >= spans["outer/inner"]["seconds"]


def test_span_stack_unwinds_on_exception():
    t = Tracer()
    with pytest.raises(RuntimeError):
        with t.span("outer"):
            raise RuntimeError("boom")
    with t.span("other"):
        pass
    assert set(t.spans()) == {"outer", "other"}  # not "outer/other"


def test_events_capped_and_counted():
    t = Tracer(max_events=2)
    for i in range(5):
        t.event("e", i=i)
    assert len(t.events()) == 2
    assert t.report()["dropped_events"] == 3


def test_clear_resets_everything():
    t = Tracer()
    t.count("a")
    with t.span("s"):
        pass
    t.event("e")
    t.meta["x"] = 1
    t.clear()
    r = t.report()
    assert r["counters"] == {} and r["spans"] == [] and r["events"] == []
    assert r["meta"] == {} and r["dropped_events"] == 0


def test_report_json_round_trip():
    t = Tracer()
    t.count("moves.coalesced", 3)
    with t.span("phase"):
        pass
    t.event("victim", var="x")
    t.meta["k"] = 4
    restored = json.loads(to_json(t))
    assert restored == t.report()
    assert restored["counters"]["moves.coalesced"] == 3
    assert restored["spans"][0]["name"] == "phase"
    assert restored["meta"]["k"] == 4


def test_null_tracer_is_inert():
    n = NullTracer()
    assert not n.enabled and not NULL_TRACER.enabled
    n.count("a", 5)
    with n.span("s"):
        with n.span("t"):
            pass
    n.event("e", x=1)
    r = n.report()
    assert r["counters"] == {} and r["spans"] == [] and r["events"] == []


def test_null_tracer_span_is_shared_and_reentrant():
    s1 = NULL_TRACER.span("a")
    s2 = NULL_TRACER.span("b")
    assert s1 is s2


# ----------------------------------------------------------- thread safety

def test_concurrent_counts_are_not_lost():
    import threading

    t = Tracer()
    threads, per_thread = 8, 2_000
    barrier = threading.Barrier(threads)

    def hammer():
        barrier.wait()
        for _ in range(per_thread):
            t.count("hits")
            t.count("weighted", 0.5)

    workers = [threading.Thread(target=hammer) for _ in range(threads)]
    for w in workers:
        w.start()
    for w in workers:
        w.join()
    assert t.counters["hits"] == threads * per_thread
    assert t.counters["weighted"] == pytest.approx(
        threads * per_thread * 0.5
    )


def test_counts_and_spans_survive_a_short_switch_interval():
    """With a thread switch between almost every bytecode, counts,
    span calls and absorbed reports from more threads than cores all
    land: each thread writes only its own accumulators."""
    import sys
    import threading

    t = Tracer()
    donor = Tracer()
    donor.count("absorbed", 2)
    report = donor.report()
    threads, per_thread = 8, 3_000
    barrier = threading.Barrier(threads)

    def hammer():
        barrier.wait(timeout=30)
        for i in range(per_thread):
            t.count("hits")
            with t.span("work"):
                pass
            if i % 100 == 0:
                t.absorb(report)

    old = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        workers = [threading.Thread(target=hammer) for _ in range(threads)]
        for w in workers:
            w.start()
        for w in workers:
            w.join(timeout=60)
    finally:
        sys.setswitchinterval(old)
    assert not any(w.is_alive() for w in workers)
    assert t.counters == {"hits": threads * per_thread,
                          "absorbed": threads * per_thread // 100 * 2}
    assert t.spans()["work"]["calls"] == threads * per_thread


def test_span_stacks_are_per_thread():
    import threading

    t = Tracer()
    threads, per_thread = 6, 200
    barrier = threading.Barrier(threads)

    def hammer(name):
        barrier.wait()
        for _ in range(per_thread):
            with t.span(name):
                with t.span("inner"):
                    pass

    workers = [
        threading.Thread(target=hammer, args=(f"outer{i}",))
        for i in range(threads)
    ]
    for w in workers:
        w.start()
    for w in workers:
        w.join()
    spans = t.spans()
    # nesting never crosses threads: every inner lives under its own
    # thread's outer, and no call is lost
    for i in range(threads):
        assert spans[f"outer{i}"]["calls"] == per_thread
        assert spans[f"outer{i}/inner"]["calls"] == per_thread
    assert not any("/outer" in name for name in spans)


def test_concurrent_absorb_merges_all_reports():
    import threading

    t = Tracer()
    donor = Tracer()
    donor.count("c", 1)
    report = donor.report()
    threads, per_thread = 8, 500
    barrier = threading.Barrier(threads)

    def hammer():
        barrier.wait()
        for _ in range(per_thread):
            t.absorb(report)

    workers = [threading.Thread(target=hammer) for _ in range(threads)]
    for w in workers:
        w.start()
    for w in workers:
        w.join()
    assert t.counters["c"] == threads * per_thread


def test_overlapping_coroutines_keep_their_own_span_paths():
    """Spans nest per asyncio task: two coroutines whose ``outer`` spans
    overlap on one event loop each record ``outer`` once, and neither
    nests inside the other."""
    import asyncio

    t = Tracer()

    async def request(started, other_started):
        with t.span("outer"):
            started.set()
            await other_started.wait()
            with t.span("inner"):
                await asyncio.sleep(0)

    async def main():
        a, b = asyncio.Event(), asyncio.Event()
        await asyncio.gather(request(a, b), request(b, a))

    asyncio.run(main())
    spans = t.spans()
    assert spans["outer"]["calls"] == 2
    assert spans["outer/inner"]["calls"] == 2
    assert not any("outer/outer" in name for name in spans)


def test_a_thread_from_to_thread_nests_under_its_caller():
    """``asyncio.to_thread`` copies the caller's context, so a span the
    thread opens nests under the caller's open span."""
    import asyncio
    import threading

    t = Tracer()
    threads = []

    def work():
        threads.append(threading.get_ident())
        with t.span("work"):
            t.count("worked")

    async def main():
        with t.span("dispatch"):
            await asyncio.to_thread(work)

    asyncio.run(main())
    assert threads and threads[0] != threading.get_ident()
    assert set(t.spans()) == {"dispatch", "dispatch/work"}
    assert t.counters == {"worked": 1}


# ------------------------------------------------------------------- export

def _sample_tracer(n=1):
    t = Tracer()
    t.count("c", n)
    with t.span("s"):
        pass
    return t


def test_as_report_accepts_tracer_and_dict():
    t = _sample_tracer()
    assert as_report(t) == t.report()
    assert as_report(t.report()) is not None


def test_csv_rows_and_to_csv():
    t = _sample_tracer(2)
    rows = list(csv_rows(t))
    assert ("counter", "c", 2, 0) in rows
    kinds = {r[0] for r in rows}
    assert kinds == {"counter", "span"}
    text = to_csv(t)
    lines = text.strip().splitlines()
    assert lines[0] == "kind,name,value,calls"
    assert any(line.startswith("counter,c,2,") for line in lines)
    assert any(line.startswith("span,s,") for line in lines)


def test_merged_report_sums_counters_and_spans():
    merged = merged_report([_sample_tracer(1), _sample_tracer(2).report()])
    assert merged["counters"]["c"] == 3
    assert merged["spans"][0]["name"] == "s"
    assert merged["spans"][0]["calls"] == 2
    assert merged["meta"] == {"merged_reports": 2}
    assert merged["events"] == []


def test_merged_report_empty():
    merged = merged_report([])
    assert merged["counters"] == {} and merged["spans"] == []


# --------------------------------------------------- strategy instrumentation

def test_conservative_counts_are_consistent():
    inst = pressure_instance(4, 6)
    t = Tracer()
    result = conservative_coalesce(inst.graph, inst.k, tracer=t)
    c = t.counters
    assert c["affinities.total"] == inst.graph.num_affinities()
    assert c["moves.coalesced"] == len(result.coalesced)
    assert c["moves.attempted"] == c["moves.coalesced"] + c["moves.rejected"]
    assert c["conservative.rounds"] >= 1
    assert any(name.startswith("conservative-") for name in t.spans())


def test_tracing_does_not_change_results():
    inst = pressure_instance(5, 8)
    plain = conservative_coalesce(inst.graph, inst.k)
    traced = conservative_coalesce(inst.graph, inst.k, tracer=Tracer())
    assert plain.residual_weight == traced.residual_weight
    assert plain.coalesced == traced.coalesced


def test_allocator_tracing_smoke():
    from repro.allocator.ssa_allocator import ssa_allocate
    from repro.engine.tasks import STRATEGY_TABLE
    from repro.ir.generators import random_function

    func = random_function(seed=3)
    t = Tracer()
    result, _ = ssa_allocate(func, 4, STRATEGY_TABLE["brute"].run, tracer=t)
    assert not allocation_errors(result)
    assert "ssa.maxlive_before" in t.counters
    assert {"ssa/construct", "ssa/spill", "ssa/build", "ssa/color"} <= set(
        t.spans()
    )


# ----------------------------------------------------------------- CLI report

@pytest.fixture()
def challenge_file(tmp_path):
    path = tmp_path / "insts.txt"
    with open(path, "w") as stream:
        for seed in range(2):
            import random

            dump_instance(
                pressure_instance(4, 5, rng=random.Random(seed)), stream
            )
    return str(path)


def test_report_json(challenge_file, tmp_path, capsys):
    out = tmp_path / "report.json"
    assert main([
        "report", challenge_file, "--strategy", "briggs", "--json",
        "-o", str(out),
    ]) == 0
    payload = json.loads(out.read_text())
    assert payload["strategy"] == "briggs"
    assert len(payload["instances"]) == 2
    rec = payload["instances"][0]
    for key in ("instance", "k", "vertices", "coalesced", "counters", "spans"):
        assert key in rec
    assert rec["counters"]["moves.attempted"] >= rec["counters"]["moves.coalesced"]
    total = payload["total"]
    assert total["counters"]["affinities.total"] == sum(
        r["counters"]["affinities.total"] for r in payload["instances"]
    )


def test_report_csv(challenge_file, capsys):
    assert main(["report", challenge_file, "--strategy", "brute", "--csv"]) == 0
    lines = capsys.readouterr().out.strip().splitlines()
    assert lines[0] == "kind,name,value,calls"
    assert any(line.startswith("counter,moves.coalesced,") for line in lines)


def test_report_text(challenge_file, capsys):
    assert main(["report", challenge_file, "--strategy", "optimistic"]) == 0
    out = capsys.readouterr().out
    assert "moves.attempted" in out
    assert "TOTAL over all instances" in out


def test_coalesce_trace_flag(challenge_file, capsys):
    assert main([
        "coalesce", challenge_file, "--strategy", "briggs", "--trace",
    ]) == 0
    out = capsys.readouterr().out
    assert "moves.attempted" in out and "[span]" in out
