"""Tests for the repro.engine campaign subsystem: task specs and
hashes, the result cache, pool fault tolerance (timeout/retry/crash),
and campaign semantics (cache hits, resume, determinism)."""

import asyncio
import json
import random
from pathlib import Path

import pytest

from repro.engine import (
    Campaign,
    ResultCache,
    TaskSpec,
    campaign_status,
    expand_grid,
    run_campaign,
    run_task,
    run_tasks,
    task_hash,
)
from repro.engine.campaign import load_campaign
from repro.obs import Tracer
from tests import corpus_tasks


def boom_task(seed, k, params, tracer, budget):
    """Custom task that always fails (deterministic error path)."""
    raise ValueError(f"boom {seed}")


def row_task(seed, k, params, tracer, budget):
    """Custom task returning a deterministic payload."""
    if tracer is not None:
        tracer.count("test.rows")
    return {"seed": seed, "k": k, "value": seed * 10 + params.get("off", 0)}


def pid_task(seed, k, params, tracer, budget):
    """Custom task reporting the process that ran it."""
    import os

    return {"pid": os.getpid()}


def spin_task(seed, k, params, tracer, budget):
    """Custom task that burns budget cooperatively until it raises."""
    import time

    end = time.monotonic() + params.get("max_wall", 10.0)
    while time.monotonic() < end:
        budget.check()
    return {"spun": True}


# ----------------------------------------------------------------------
# task specs and hashing
# ----------------------------------------------------------------------
class TestTaskSpec:
    def test_seed_is_required_and_int(self):
        with pytest.raises(TypeError):
            TaskSpec(generator="pressure")  # no seed at all
        with pytest.raises(ValueError):
            TaskSpec(generator="pressure", seed=None)
        with pytest.raises(ValueError):
            TaskSpec(generator="pressure", seed=True)
        with pytest.raises(ValueError):
            TaskSpec.from_dict({"generator": "pressure", "k": 6})

    @pytest.mark.parametrize("k", [-1, "3", True, 2.0, None])
    def test_k_is_an_int_at_least_zero(self, k, tmp_path):
        """0 means the instance's k (Maxlive for llvm); anything that is
        not an int >= 0 is rejected where the spec is made."""
        with pytest.raises(ValueError, match="k must be"):
            TaskSpec(generator="llvm", seed=0, k=k, strategy="linear-scan",
                     params={"path": "loops.ll", "function": "gcd"})
        spec_file = tmp_path / "c.json"
        spec_file.write_text(json.dumps({
            "name": "bad-k",
            "tasks": [{"generator": "pressure", "seed": 0, "k": k,
                       "strategy": "briggs"}],
        }))
        with pytest.raises(ValueError, match="k must be"):
            load_campaign(str(spec_file))

    def test_k_zero_runs_at_maxlive(self):
        spec = TaskSpec(generator="llvm", seed=0, strategy="linear-scan",
                        params={"path": "loops.ll", "function": "gcd"})
        record = run_task(spec, verify=True)
        assert record["verification"]["status"] == "certified"
        assert record["payload"]["k"] == record["payload"]["max_overlap"]

    def test_unknown_generator_and_strategy(self):
        with pytest.raises(ValueError):
            TaskSpec(generator="nope", seed=0)
        with pytest.raises(ValueError):
            TaskSpec(generator="pressure", seed=0, strategy="nope")

    def test_params_mapping_normalized(self):
        a = TaskSpec(generator="pressure", seed=0, params={"b": 2, "a": 1})
        b = TaskSpec(generator="pressure", seed=0,
                     params=(("a", 1), ("b", 2)))
        assert a == b
        assert a.params_dict() == {"a": 1, "b": 2}

    def test_round_trip(self):
        spec = TaskSpec(generator="program", seed=7, k=5,
                        strategy="optimistic", params={"num_vars": 9},
                        max_seconds=2.0)
        again = TaskSpec.from_dict(spec.as_dict())
        assert again == spec
        assert task_hash(again) == task_hash(spec)

    def test_from_dict_rejects_unknown_fields(self):
        with pytest.raises(ValueError):
            TaskSpec.from_dict({"generator": "pressure", "seed": 0,
                                "typo_field": 1})

    @pytest.mark.parametrize("budget", [
        {"max_steps": "3"}, {"max_steps": True}, {"max_steps": 2.5},
        {"max_steps": 0}, {"max_steps": -1},
        {"max_seconds": "2"}, {"max_seconds": True}, {"max_seconds": 0},
        {"max_seconds": -1.0}, {"max_seconds": float("nan")},
    ])
    def test_rejects_bad_budgets(self, budget):
        # not a TypeError inside run_task, and not a 1-step budget
        with pytest.raises(ValueError, match="max_s"):
            TaskSpec.from_dict({"generator": "pressure", "seed": 0,
                                **budget})

    def test_accepts_good_budgets(self):
        spec = TaskSpec(generator="pressure", seed=0, max_steps=1,
                        max_seconds=2)
        assert (spec.max_steps, spec.max_seconds) == (1, 2)

    def test_campaign_spec_with_bad_budget_exits_2(self, tmp_path, capsys):
        from repro.cli import main

        spec_file = tmp_path / "bad.json"
        spec_file.write_text(json.dumps({
            "name": "bad",
            "tasks": [{"generator": "pressure", "seed": 0, "k": 6,
                       "strategy": "briggs", "max_steps": "3"}],
        }))
        assert main(["campaign", "run", str(spec_file), "--cache-dir",
                     str(tmp_path / "c")]) == 2
        assert "max_steps" in capsys.readouterr().err

    def test_hash_sensitivity(self):
        base = TaskSpec(generator="pressure", seed=0, k=6, strategy="briggs")
        assert task_hash(base) == task_hash(
            TaskSpec(generator="pressure", seed=0, k=6, strategy="briggs")
        )
        for other in [
            TaskSpec(generator="pressure", seed=1, k=6, strategy="briggs"),
            TaskSpec(generator="pressure", seed=0, k=7, strategy="briggs"),
            TaskSpec(generator="pressure", seed=0, k=6, strategy="brute"),
            TaskSpec(generator="pressure", seed=0, k=6, strategy="briggs",
                     params={"rounds": 5}),
            TaskSpec(generator="pressure", seed=0, k=6, strategy="briggs",
                     max_seconds=1.0),
        ]:
            assert task_hash(other) != task_hash(base)


class TestExpandGrid:
    def test_cartesian_product_with_defaults(self):
        specs = expand_grid(
            {"seed": {"count": 3}, "strategy": ["briggs", "brute"]},
            {"generator": "pressure", "k": 6, "rounds": 7},
        )
        assert len(specs) == 6
        assert all(s.k == 6 for s in specs)
        assert all(s.params_dict()["rounds"] == 7 for s in specs)
        assert sorted({s.seed for s in specs}) == [0, 1, 2]

    def test_seed_range_sugar(self):
        specs = expand_grid({"seed": {"start": 5, "count": 2}},
                            {"generator": "pressure", "k": 4})
        assert [s.seed for s in specs] == [5, 6]

    def test_scalar_axis(self):
        specs = expand_grid({"seed": 3}, {"generator": "pressure", "k": 4})
        assert len(specs) == 1 and specs[0].seed == 3


# ----------------------------------------------------------------------
# task execution
# ----------------------------------------------------------------------
class TestRunTask:
    def test_ok_record(self):
        spec = TaskSpec(generator="pressure", seed=2, k=6,
                        strategy="briggs", params={"rounds": 5})
        record = run_task(spec)
        assert record["status"] == "ok"
        assert record["key"] == task_hash(spec)
        assert record["payload"]["vertices"] > 0
        assert record["result_hash"]
        assert record["trace"]["counters"]["affinities.total"] > 0

    def test_custom_call(self):
        spec = TaskSpec(generator="tests.test_engine:row_task",
                        strategy="call", seed=4, k=2, params={"off": 3})
        record = run_task(spec)
        assert record["status"] == "ok"
        assert record["payload"] == {"seed": 4, "k": 2, "value": 43}
        assert record["trace"]["counters"]["test.rows"] == 1

    def test_budget_exceeded_is_a_result(self):
        spec = TaskSpec(generator="pressure", seed=3, k=5,
                        strategy="exact", params={"rounds": 7},
                        max_steps=5)
        record = run_task(spec)
        assert record["status"] == "budget_exceeded"
        assert record["payload"]["reason"] == "steps"
        assert record["result_hash"] is None

    def test_result_hash_excludes_timing(self):
        spec = TaskSpec(generator="program", seed=1, k=5, strategy="brute")
        a, b = run_task(spec), run_task(spec)
        assert a["result_hash"] == b["result_hash"]

    def test_deadline_tightens_spec_budget(self):
        spec = TaskSpec(generator="tests.test_engine:spin_task",
                        strategy="call", seed=1, max_seconds=60.0)
        record = run_task(spec, deadline=0.05)
        assert record["status"] == "budget_exceeded"
        assert record["payload"]["reason"] == "deadline"
        # the deadline, not the spec's minute of budget, stopped it
        assert record["seconds"] < 5.0
        assert spec.max_seconds == 60.0

    def test_expired_deadline_is_a_result_not_an_error(self):
        spec = TaskSpec(generator="sleep", seed=0,
                        params={"seconds": 30.0})
        record = run_task(spec, deadline=-1.0)
        assert record["status"] == "budget_exceeded"
        assert record["payload"]["reason"] == "deadline"
        assert record["payload"]["steps"] == 0

    def test_deadline_never_enters_the_task_hash(self):
        spec = TaskSpec(generator="pressure", seed=2, k=6,
                        strategy="briggs", params={"rounds": 5})
        record = run_task(spec, deadline=30.0)
        assert record["status"] == "ok"
        assert record["key"] == task_hash(spec)


# ----------------------------------------------------------------------
# cache
# ----------------------------------------------------------------------
class TestResultCache:
    def test_roundtrip_and_keys(self, tmp_path):
        cache = ResultCache(tmp_path / "c")
        assert cache.get("ab" * 8) is None
        record = {"key": "ab" * 8, "status": "ok"}
        cache.put("ab" * 8, record)
        assert cache.get("ab" * 8) == record
        assert list(cache.keys()) == ["ab" * 8]
        assert len(cache) == 1
        assert cache.delete("ab" * 8)
        assert not cache.delete("ab" * 8)

    def test_corrupt_entry_is_a_miss(self, tmp_path):
        cache = ResultCache(tmp_path)
        key = "cd" * 8
        cache.put(key, {"key": key, "status": "ok"})
        # corrupt the key's last line: its body is no longer JSON
        log = cache.log_path.read_bytes()
        cache.log_path.write_bytes(log[:log.rindex(b"\t") + 1] + b"{not json")
        assert cache.get(key) is None
        # and a record whose key field disagrees is also a miss
        cache.put(key, {"key": "ff" * 8, "status": "ok"})
        assert cache.get(key) is None

    def test_roundtrip_of_floats_lists_and_unicode(self, tmp_path):
        """put encodes a record in one call and reads back equal, also
        when the root does not exist yet; the logged line decodes to
        the record."""
        cache = ResultCache(tmp_path / "fresh" / "root")
        records = {}
        for n, key in enumerate(("a1" * 8, "b2" * 8, "a1" + "c3" * 7)):
            records[key] = {
                "key": key,
                "status": "ok",
                "payload": {
                    "residual_weight": 0.1 + 0.2 * n,
                    "pairs": [["x\u00e9", "\u03c6.1"], [[1, 2.5], []]],
                    "name": "chacha \u2014 \u00fcber",
                },
            }
            # the first put makes the root
            assert cache.root.exists() == (n > 0)
            assert cache.put(key, records[key]) is False
        lines = cache.log_path.read_bytes().split(b"\n")
        assert lines[0] == b"" and len(lines) == 1 + len(records)
        for line, (key, record) in zip(lines[1:], records.items()):
            logged_key, body = line.decode().split("\t")
            assert logged_key == key
            assert json.loads(body) == record
            assert cache.get(key) == record
        assert cache.put("b2" * 8, records["b2" * 8]) is True
        assert sorted(cache.keys()) == sorted(records)

    def test_concurrent_writers_never_corrupt(self, tmp_path):
        import threading

        cache = ResultCache(tmp_path)
        key = "ee" * 8
        threads, per_thread = 8, 50
        barrier = threading.Barrier(threads)
        payloads = [
            {"key": key, "status": "ok", "payload": {"writer": i}}
            for i in range(threads)
        ]
        seen_bad = []

        def writer(i):
            barrier.wait()
            for _ in range(per_thread):
                cache.put(key, payloads[i])
                record = cache.get(key)
                # readers racing writers may only ever observe a
                # complete record from *some* writer — never a torn one
                if record is not None and record not in payloads:
                    seen_bad.append(record)

        workers = [
            threading.Thread(target=writer, args=(i,))
            for i in range(threads)
        ]
        for w in workers:
            w.start()
        for w in workers:
            w.join()
        assert seen_bad == []
        assert cache.get(key) in payloads
        # every put is one whole line of the log, and nothing else
        # (no temp file, no shard) is left in the directory
        assert sorted(p.name for p in tmp_path.iterdir()) == [
            "records.lock", "records.log"]
        lines = cache.log_path.read_bytes().split(b"\n")[1:]
        assert len(lines) == threads * per_thread
        for line in lines:
            logged_key, body = line.decode().split("\t")
            assert logged_key == key and json.loads(body) in payloads

    def test_torn_tail_of_a_dead_writer(self, tmp_path):
        cache = ResultCache(tmp_path)
        key, torn = "fa" * 8, "fb" * 8
        # a writer that died mid-append left half a line
        cache.log_path.write_bytes(f'\n{torn}\t{{"key": "{torn}", "st'
                                   .encode())
        record = {"key": key, "status": "ok"}
        assert cache.put(key, record) is False
        assert cache.get(key) == record
        assert cache.get(torn) is None
        assert ResultCache(tmp_path).get(key) == record


# ----------------------------------------------------------------------
# pool fault tolerance
# ----------------------------------------------------------------------
class TestPool:
    def test_inline_error_record(self):
        spec = TaskSpec(generator="tests.test_engine:boom_task",
                        strategy="call", seed=1)
        tracer = Tracer()
        [record] = run_tasks([spec], workers=0, tracer=tracer)
        assert record["status"] == "error"
        assert "boom 1" in record["error"]
        assert tracer.counters["engine.errors"] == 1

    def test_error_record_is_one_line(self, capfd):
        spec = TaskSpec(generator="tests.test_engine:boom_task",
                        strategy="call", seed=1)
        [record] = run_tasks([spec], workers=0)
        assert record["error"] == "ValueError: boom 1"
        # the traceback goes to the worker's stderr instead
        err = capfd.readouterr().err
        assert f"task {task_hash(spec)} raised" in err
        assert "Traceback" in err and "boom_task" in err

    def test_timeout_retry_failed_accounting(self):
        spec = TaskSpec(generator="sleep", seed=0,
                        params={"seconds": 30.0})
        tracer = Tracer()
        [record] = run_tasks([spec], workers=1, timeout=0.3, retries=2,
                             backoff=0.05, tracer=tracer)
        assert record["status"] == "timeout"
        assert record["attempts"] == 3
        assert tracer.counters["engine.timeouts"] == 3
        assert tracer.counters["engine.retries"] == 2
        assert tracer.counters["engine.tasks_run"] == 1

    def test_crash_contained_and_campaign_completes(self):
        specs = [
            TaskSpec(generator="crash", seed=0),
            TaskSpec(generator="pressure", seed=1, k=6, strategy="briggs",
                     params={"rounds": 4}),
            TaskSpec(generator="pressure", seed=2, k=6, strategy="briggs",
                     params={"rounds": 4}),
        ]
        tracer = Tracer()
        records = run_tasks(specs, workers=2, timeout=30, retries=1,
                            backoff=0.05, tracer=tracer)
        assert [r["status"] for r in records] == ["crashed", "ok", "ok"]
        assert records[0]["attempts"] == 2
        assert tracer.counters["engine.crashes"] == 2

    def test_workers_persist_across_tasks(self):
        import os

        specs = [TaskSpec(generator="tests.test_engine:pid_task",
                          strategy="call", seed=s) for s in range(6)]
        records = run_tasks(specs, workers=2, timeout=60)
        pids = {record["payload"]["pid"] for record in records}
        assert [r["status"] for r in records] == ["ok"] * 6
        assert os.getpid() not in pids
        assert len(pids) <= 2

    def test_records_come_back_in_input_order(self):
        specs = [TaskSpec(generator="pressure", seed=s, k=6,
                          strategy="briggs", params={"rounds": 4})
                 for s in range(6)]
        records = run_tasks(specs, workers=3, timeout=60)
        assert [r["task"]["seed"] for r in records] == list(range(6))


# ----------------------------------------------------------------------
# persistent pool (the serving substrate)
# ----------------------------------------------------------------------
class TestPersistentPool:
    def _spec(self, seed=0):
        return TaskSpec(generator="pressure", seed=seed, k=6,
                        strategy="briggs", params={"rounds": 4})

    def test_inline_batch_in_order(self):
        from repro.engine import PersistentPool

        with PersistentPool(workers=0) as pool:
            records = [asyncio.run(pool.run(self._spec(s)))
                       for s in range(4)]
        assert [r["status"] for r in records] == ["ok"] * 4
        assert [r["task"]["seed"] for r in records] == list(range(4))

    def test_worker_survives_across_dispatches(self):
        from repro.engine import PersistentPool

        with PersistentPool(workers=1) as pool:
            first = asyncio.run(pool.run(self._spec(0), timeout=60))
            second = asyncio.run(pool.run(self._spec(1), timeout=60))
        assert [first["status"], second["status"]] == ["ok", "ok"]
        assert second["task"]["seed"] == 1

    def test_verify_reaches_the_worker(self):
        from repro.engine import PersistentPool

        with PersistentPool(workers=1) as pool:
            plain = asyncio.run(pool.run(self._spec(), timeout=60))
            verified = asyncio.run(
                pool.run(self._spec(), verify=True, timeout=60)
            )
        assert "verification" not in plain
        assert verified["verification"]["status"] == "certified"

    def test_crash_contained_and_pool_recovers(self):
        from repro.engine import PersistentPool

        with PersistentPool(workers=1) as pool:
            record = asyncio.run(
                pool.run(TaskSpec(generator="crash", seed=0), timeout=30)
            )
            assert record["status"] == "crashed"
            # the dead worker was replaced; the pool still serves
            again = asyncio.run(pool.run(self._spec(), timeout=60))
            assert again["status"] == "ok"

    def test_crash_hands_the_replacement_to_a_waiter(self):
        from repro.engine import PersistentPool

        pid = TaskSpec(generator="tests.test_engine:pid_task",
                       strategy="call", seed=0)

        async def body(pool):
            first = await pool.run(pid, timeout=60)
            # the crash takes the only worker; the second dispatch
            # waits on the loop for it
            crashed, waited = await asyncio.gather(
                pool.run(TaskSpec(generator="crash", seed=0), timeout=30),
                pool.run(pid, timeout=60),
            )
            return first, crashed, waited

        tracer = Tracer()
        with PersistentPool(workers=1, tracer=tracer) as pool:
            first, crashed, waited = asyncio.run(
                asyncio.wait_for(body(pool), 60)
            )
        assert crashed["status"] == "crashed"
        assert waited["status"] == "ok"
        assert waited["payload"]["pid"] != first["payload"]["pid"]
        assert tracer.counters["engine.crashes"] == 1

    def test_timeout_kills_and_respawns(self):
        from repro.engine import PersistentPool

        sleep = TaskSpec(generator="sleep", seed=0,
                         params={"seconds": 30.0})
        tracer = Tracer()
        with PersistentPool(workers=1, tracer=tracer) as pool:
            record = asyncio.run(pool.run(sleep, timeout=0.3))
            assert record["status"] == "timeout"
            assert tracer.counters["engine.timeouts"] == 1
            again = asyncio.run(pool.run(self._spec(), timeout=60))
            assert again["status"] == "ok"

    def test_cancelled_dispatch_leaves_no_stale_record(self):
        from repro.engine import PersistentPool

        nap = TaskSpec(generator="sleep", seed=0, params={"seconds": 0.2})

        async def body(pool):
            dispatch = asyncio.ensure_future(pool.run(nap, timeout=60))
            await asyncio.sleep(0.05)
            dispatch.cancel()
            with pytest.raises(asyncio.CancelledError):
                await dispatch
            # the nap's record would be in the pipe by now had its
            # worker been returned to the pool
            await asyncio.sleep(0.3)
            return await pool.run(self._spec(1), timeout=60)

        with PersistentPool(workers=1) as pool:
            record = asyncio.run(asyncio.wait_for(body(pool), 60))
        assert record["status"] == "ok"
        assert record["key"] == task_hash(self._spec(1))

    def test_concurrent_dispatches_and_cancels_keep_capacity(self):
        from repro.engine import PersistentPool

        # more workers than cores, more dispatches than workers, and
        # some cancelled mid-flight or while waiting for a worker
        specs = [TaskSpec(generator="tests.test_engine:row_task",
                          strategy="call", seed=s) for s in range(24)]

        async def body(pool):
            runs = [asyncio.ensure_future(pool.run(spec, timeout=60))
                    for spec in specs]
            await asyncio.sleep(0)
            for dispatch in runs[1::5]:
                dispatch.cancel()
            await asyncio.gather(*runs, return_exceptions=True)
            return runs

        with PersistentPool(workers=3) as pool:
            runs = asyncio.run(asyncio.wait_for(body(pool), 60))
            again = asyncio.run(pool.run(specs[0], timeout=60))
            idle = len(pool._idle)
        finished = [(spec, run.result()) for spec, run in zip(specs, runs)
                    if not run.cancelled()]
        assert len(finished) == len(specs) - len(runs[1::5])
        for spec, record in finished:
            assert record["key"] == task_hash(spec)
            assert record["payload"]["seed"] == spec.seed
        assert again["key"] == task_hash(specs[0])
        assert idle == 3

    def test_deadlines_feed_cooperative_budgets(self):
        from repro.engine import PersistentPool

        sleep = TaskSpec(generator="sleep", seed=0,
                         params={"seconds": 30.0})
        with PersistentPool(workers=0) as pool:
            record = asyncio.run(pool.run(sleep, deadline=-1.0))
        assert record["status"] == "budget_exceeded"
        assert record["payload"]["reason"] == "deadline"

    def test_submit_after_close_raises(self):
        from repro.engine import PersistentPool

        pool = PersistentPool(workers=0)
        pool.close()
        with pytest.raises(RuntimeError):
            asyncio.run(pool.run(self._spec()))
        with pytest.raises(RuntimeError):
            pool.run_inline(self._spec())


# ----------------------------------------------------------------------
# campaign semantics
# ----------------------------------------------------------------------
def _campaign(n=8, name="t"):
    specs = expand_grid(
        {"seed": {"count": n}, "strategy": ["briggs", "brute"]},
        {"generator": "pressure", "k": 6, "rounds": 5},
    )
    return Campaign(name=name, tasks=specs, workers=0, timeout=60)


class TestCampaign:
    def test_cache_hit_miss_and_resume(self, tmp_path):
        campaign = _campaign()
        cache = ResultCache(tmp_path)
        first = run_campaign(campaign, cache)
        assert first["cache_hits"] == 0
        assert first["executed"] == len(campaign.tasks)
        assert first["by_status"] == {"ok": len(campaign.tasks)}
        second = run_campaign(campaign, cache)
        assert second["cache_hits"] == len(campaign.tasks)
        assert second["executed"] == 0
        assert second["result_hash"] == first["result_hash"]

    def test_resume_after_interrupt(self, tmp_path):
        campaign = _campaign()
        cache = ResultCache(tmp_path)
        run_campaign(campaign, cache)
        # simulate an interrupt that lost two records and corrupted one
        keys = campaign.keys()
        cache.delete(keys[0])
        cache.delete(keys[3])
        with open(cache.log_path, "a") as log:  # a torn last line
            log.write(f'\n{keys[5]}\t{{"key": "{keys[5]}", "trunc')
        status = campaign_status(campaign, cache)
        assert status["missing"] == 3  # corrupt reads as missing
        assert status["would_run"] == 3
        resumed = run_campaign(campaign, cache)
        assert resumed["executed"] == 3
        assert resumed["cache_hits"] == len(campaign.tasks) - 3
        assert resumed["by_status"] == {"ok": len(campaign.tasks)}

    def test_failed_tasks_rerun_on_resume(self, tmp_path):
        specs = [TaskSpec(generator="crash", seed=0)] + _campaign(2).tasks
        campaign = Campaign(name="f", tasks=specs, workers=2,
                            timeout=30, retries=0)
        cache = ResultCache(tmp_path)
        first = run_campaign(campaign, cache)
        assert first["by_status"]["crashed"] == 1
        assert first["failed_tasks"] == [task_hash(specs[0])]
        second = run_campaign(campaign, cache)
        # the crash re-ran; the ok records were reused
        assert second["executed"] == 1
        assert second["cache_hits"] == len(specs) - 1

    def test_budget_exceeded_is_reusable(self, tmp_path):
        spec = TaskSpec(generator="pressure", seed=3, k=5,
                        strategy="exact", params={"rounds": 7},
                        max_steps=5)
        campaign = Campaign(name="b", tasks=[spec], workers=0)
        cache = ResultCache(tmp_path)
        first = run_campaign(campaign, cache)
        assert first["by_status"] == {"budget_exceeded": 1}
        assert first["failed_tasks"] == []
        second = run_campaign(campaign, cache)
        assert second["cache_hits"] == 1 and second["executed"] == 0

    def test_determinism_across_worker_counts(self, tmp_path):
        hashes = set()
        for i, workers in enumerate([0, 1, 3]):
            campaign = _campaign(name=f"d{i}")
            cache = ResultCache(tmp_path / str(i))
            summary = run_campaign(campaign, cache, workers=workers)
            assert summary["by_status"] == {"ok": len(campaign.tasks)}
            hashes.add(summary["result_hash"])
        assert len(hashes) == 1

    def test_summary_artifact_and_counters(self, tmp_path):
        campaign = _campaign(2)
        cache = ResultCache(tmp_path)
        summary = run_campaign(campaign, cache)
        path = cache.summary_path(campaign.name)
        assert path.is_file()
        on_disk = json.loads(path.read_text())
        assert on_disk["result_hash"] == summary["result_hash"]
        counters = summary["trace"]["counters"]
        assert counters["engine.tasks_run"] == len(campaign.tasks)
        # per-task strategy counters were absorbed into the campaign trace
        assert counters["moves.attempted"] > 0

    def test_load_campaign_spec_file(self, tmp_path):
        spec_file = tmp_path / "c.json"
        spec_file.write_text(json.dumps({
            "name": "file",
            "workers": 2,
            "timeout": 9.0,
            "defaults": {"generator": "pressure", "k": 6, "rounds": 4},
            "grid": {"seed": {"count": 2}, "strategy": ["briggs"]},
            "tasks": [{"generator": "program", "seed": 9, "k": 5,
                       "strategy": "brute", "num_vars": 8}],
        }))
        campaign = load_campaign(str(spec_file))
        assert campaign.name == "file"
        assert campaign.workers == 2 and campaign.timeout == 9.0
        assert len(campaign.tasks) == 3
        last = campaign.tasks[-1]
        assert last.generator == "program"
        # defaults apply to explicit tasks too (rounds rides along)
        assert last.params_dict() == {"num_vars": 8, "rounds": 4}

    def test_load_campaign_requires_tasks(self, tmp_path):
        spec_file = tmp_path / "empty.json"
        spec_file.write_text(json.dumps({"name": "empty"}))
        with pytest.raises(ValueError):
            load_campaign(str(spec_file))


class TestVerify:
    def _spec(self, seed=1, strategy="brute"):
        return TaskSpec(generator="pressure", seed=seed, k=5,
                        strategy=strategy)

    def test_run_task_attaches_verification(self):
        record = run_task(self._spec(), verify=True)
        assert record["status"] == "ok"
        assert record["verification"]["status"] == "certified"
        assert record["verification"]["diagnostics"] == []

    def test_run_task_without_verify_has_no_block(self):
        record = run_task(self._spec())
        assert "verification" not in record

    def test_verification_never_changes_result_hash(self):
        plain = run_task(self._spec())
        verified = run_task(self._spec(), verify=True)
        assert plain["result_hash"] == verified["result_hash"]

    def test_fault_generator_skipped(self):
        from repro.analysis.engine_check import verify_record

        spec = TaskSpec(generator="sleep", seed=0, k=0,
                        params={"seconds": 0.0})
        record = run_task(spec, verify=True)
        assert record["verification"]["status"] == "skipped"

    def test_tampered_payload_fails(self):
        from repro.analysis.engine_check import verify_record

        spec = self._spec(seed=5)
        record = run_task(spec)
        record["payload"]["coalesced"] += 1
        outcome = verify_record(spec, record)
        assert outcome["status"] == "failed"
        assert any(d["code"] == "COAL005" for d in outcome["diagnostics"])

    def test_campaign_verify_summary_and_cache_upgrade(self, tmp_path):
        cache = ResultCache(tmp_path)
        tasks = [self._spec(seed=s) for s in range(3)]
        campaign = Campaign(name="v", tasks=tasks, workers=0)
        # first run without verification: no verification block
        summary = run_campaign(campaign, cache, write_summary=False)
        assert "verification" not in summary
        # second run with verify: all cache hits get certified in place
        summary = run_campaign(campaign, cache, write_summary=False,
                               verify=True)
        assert summary["cache_hits"] == 3
        assert summary["verification"]["certified"] == 3
        assert summary["verification"]["failed"] == []
        # the upgraded records are persisted
        for spec in tasks:
            cached = cache.get(task_hash(spec))
            assert cached["verification"]["status"] == "certified"

    def test_campaign_verify_detects_poisoned_cache(self, tmp_path):
        cache = ResultCache(tmp_path)
        spec = self._spec(seed=9)
        campaign = Campaign(name="p", tasks=[spec], workers=0)
        run_campaign(campaign, cache, write_summary=False)
        key = task_hash(spec)
        record = cache.get(key)
        record["payload"]["coalesced_pairs"].append(["zz1", "zz2"])
        cache.put(key, record)
        summary = run_campaign(campaign, cache, write_summary=False,
                               verify=True)
        assert summary["verification"]["failed"] == [key]

    def test_load_campaign_reads_verify(self, tmp_path):
        spec = tmp_path / "c.json"
        spec.write_text(json.dumps({
            "name": "v2", "verify": True,
            "tasks": [{"generator": "pressure", "seed": 1, "k": 4,
                       "strategy": "briggs"}],
        }))
        campaign = load_campaign(str(spec))
        assert campaign.verify is True

    def test_subprocess_workers_verify(self, tmp_path):
        cache = ResultCache(tmp_path)
        campaign = Campaign(
            name="w", tasks=[self._spec(seed=s) for s in range(2)],
            workers=2, verify=True,
        )
        summary = run_campaign(campaign, cache, write_summary=False)
        assert summary["verification"]["certified"] == 2


# ---------------------------------------------------------------------------
# verification of what run_task built (``verify_record(..., built=)``)
# ---------------------------------------------------------------------------
def _handed_allocation(spec):
    """An allocation record plus the ``Built`` run_task would hand over."""
    from dataclasses import replace

    from repro.engine.tasks import (
        STRATEGY_TABLE,
        _allocation_payload,
        build,
    )

    built = build(spec)
    result = STRATEGY_TABLE[spec.strategy].run(built.subject, built.k)
    record = {"status": "ok", "payload": _allocation_payload(result)}
    return record, replace(built, result=result)


def _chacha_allocation(strategy="linear-scan"):
    """chacha_mix at Maxlive - 1: an allocation that spills (linear-scan
    in two rounds)."""
    from repro.frontend.corpus import corpus_dir, function_from_path
    from repro.ir.liveness import maxlive

    func = function_from_path(corpus_dir() / "chacha_block.ll",
                              function="chacha_mix")
    return TaskSpec(generator="llvm", seed=0, k=maxlive(func) - 1,
                    strategy=strategy,
                    params={"path": "chacha_block.ll",
                            "function": "chacha_mix"})


class TestHandedVerification:
    def test_handed_and_regenerated_verdicts_agree(self):
        """Over the corpus task list, the verification run_task attaches
        (handed path) equals a regenerating ``verify_record``,
        diagnostics included — the two known COAL004 failures too."""
        from repro.analysis.engine_check import verify_record

        failed = []
        for spec in corpus_tasks().values():
            record = run_task(spec, verify=True)
            assert record["status"] == "ok"
            handed = record["verification"]
            assert handed == verify_record(spec, record), spec
            if handed["status"] != "certified":
                failed.append((spec.params_dict()["function"],
                               spec.strategy,
                               {d["code"] for d in handed["diagnostics"]}))
        assert sorted(failed) == [("chacha_mix", "biased", {"COAL004"}),
                                  ("chacha_mix", "chordal", {"COAL004"})]

    def test_allocations_record_their_spill_rounds(self):
        from repro.allocator.spill import spill_everywhere

        record, built = _handed_allocation(_chacha_allocation())
        result = built.result
        assert len(result.spill_rounds) == result.rounds - 1 == 2
        assert sorted(map(str, result.spilled)) == sorted(
            str(v) for victims in result.spill_rounds for v in victims)
        rebuilt = built.source
        for victims in result.spill_rounds:
            rebuilt = spill_everywhere(rebuilt, set(victims))
        assert rebuilt.fingerprint() == result.function.fingerprint()
        assert "spill_rounds" not in record["payload"]

    def test_strategy_mutating_its_input_is_eng002(self, monkeypatch):
        from dataclasses import replace

        from repro.engine.tasks import STRATEGY_TABLE

        original = STRATEGY_TABLE["brute"]

        def mutating(graph, k, **kwargs):
            u = next(iter(graph.vertices))
            v = next(x for x in graph.vertices
                     if x != u and not graph.has_edge(u, x))
            graph.add_edge(u, v)
            return original.run(graph, k, **kwargs)

        monkeypatch.setitem(STRATEGY_TABLE, "brute",
                            replace(original, run=mutating))
        spec = TaskSpec(generator="pressure", seed=11, k=5, strategy="brute")
        record = run_task(spec, verify=True)
        assert record["status"] == "ok"
        assert record["verification"]["status"] == "failed"
        assert [d["code"] for d in record["verification"]["diagnostics"]] \
            == ["ENG002"]

    def test_allocator_mutating_its_input_is_eng002(self, monkeypatch):
        import repro.intervals.linear_scan as linear_scan
        from repro.ir.instructions import Instr

        original = linear_scan.linear_scan_allocate

        def mutating(func, k, **kwargs):
            func.blocks[func.entry].instrs.insert(0, Instr("nop"))
            return original(func, k, **kwargs)

        monkeypatch.setattr(linear_scan, "linear_scan_allocate", mutating)
        record = run_task(_chacha_allocation(), verify=True)
        assert record["verification"]["status"] == "failed"
        assert [d["code"] for d in record["verification"]["diagnostics"]] \
            == ["ENG002"]

    @pytest.mark.parametrize("strategy", ["linear-scan", "second-chance"])
    def test_swapped_registers_fail(self, strategy):
        from repro.analysis.engine_check import verify_record

        spec = _chacha_allocation(strategy)
        record, built = _handed_allocation(spec)
        assignment = record["payload"]["assignment"]
        first = assignment[0]
        other = next(p for p in assignment if p[1] != first[1])
        first[1], other[1] = other[1], first[1]
        outcome = verify_record(spec, record, built=built)
        assert outcome["status"] == "failed"
        assert {"field": "assignment"} in [
            d["detail"] for d in outcome["diagnostics"] if d["code"] == "ENG001"]
        # the passes check the payload's assignment, not the allocator's
        assert "ALLOC001" in {d["code"] for d in outcome["diagnostics"]}

    def test_dropped_spill_fails(self):
        from repro.analysis.engine_check import verify_record

        spec = _chacha_allocation()
        record, built = _handed_allocation(spec)
        assert record["payload"]["spilled"]
        record["payload"]["spilled"].pop()
        outcome = verify_record(spec, record, built=built)
        assert outcome["status"] == "failed"
        assert [d["detail"] for d in outcome["diagnostics"]] \
            == [{"field": "spilled"}]

    def test_tampered_final_code_is_eng001(self):
        from repro.analysis.engine_check import verify_record
        from repro.ir.instructions import Instr

        spec = _chacha_allocation()
        record, built = _handed_allocation(spec)
        final = built.result.function
        assert final is not built.source
        final.blocks[final.entry].instrs.insert(0, Instr("nop"))
        outcome = verify_record(spec, record, built=built)
        assert outcome["status"] == "failed"
        assert {"field": "function"} in [
            d["detail"] for d in outcome["diagnostics"] if d["code"] == "ENG001"]

    def test_tampered_memoised_final_code_is_eng001(self):
        """The final code of an allocator handed the memoised facts is
        the memo's own rewrite; tampering with it is caught too."""
        from dataclasses import replace

        from repro.analysis.engine_check import verify_record
        from repro.engine.tasks import (
            STRATEGY_TABLE,
            _allocation_payload,
            build,
        )
        from repro.ir.instructions import Instr

        spec = _chacha_allocation()
        built = build(spec)
        result = STRATEGY_TABLE[spec.strategy].run(
            built.subject, built.k, facts=built.facts)
        record = {"status": "ok", "payload": _allocation_payload(result)}
        final = result.function
        assert final is built.facts.spilled(result.spill_rounds[0]).spilled(
            result.spill_rounds[1]).function
        final.blocks[final.entry].instrs.insert(0, Instr("nop"))
        outcome = verify_record(spec, record,
                                built=replace(built, result=result))
        assert outcome["status"] == "failed"
        assert {"field": "function"} in [
            d["detail"] for d in outcome["diagnostics"] if d["code"] == "ENG001"]

    def test_unreadable_assignment_is_eng001(self):
        from repro.analysis.engine_check import verify_record

        spec = _chacha_allocation()
        record, built = _handed_allocation(spec)
        record["payload"]["assignment"] = None
        outcome = verify_record(spec, record, built=built)
        assert outcome["status"] == "failed"
        assert [d["detail"] for d in outcome["diagnostics"]] \
            == [{"field": "assignment"}]

    def test_verify_record_options_are_keyword_only(self):
        from repro.analysis.engine_check import verify_record

        spec = TaskSpec(generator="pressure", seed=1, k=5, strategy="brute")
        with pytest.raises(TypeError):
            verify_record(spec, run_task(spec), None, Tracer())


# ---------------------------------------------------------------------------
# the per-process build memo of "llvm" inputs
# ---------------------------------------------------------------------------
def _llvm_spec(strategy="briggs", k=0, **params):
    params.setdefault("path", "loops.ll")
    params.setdefault("function", "gcd")
    return TaskSpec(generator="llvm", seed=0, k=k, strategy=strategy,
                    params=params)


class TestBuildMemo:
    @pytest.fixture(autouse=True)
    def cold_memo(self):
        from repro.engine import tasks

        tasks._build_memo.clear()

    @pytest.fixture
    def build_calls(self, monkeypatch):
        """Counts of ``lower_module`` and ``chaitin_interference`` calls."""
        import repro.ir.interference as interference
        from repro.frontend import corpus

        calls = {"lower": 0, "interference": 0}

        def counting(name, original):
            def wrapper(*args, **kwargs):
                calls[name] += 1
                return original(*args, **kwargs)
            return wrapper

        monkeypatch.setattr(corpus, "lower_module",
                            counting("lower", corpus.lower_module))
        monkeypatch.setattr(
            interference, "chaitin_interference",
            counting("interference", interference.chaitin_interference))
        return calls

    def test_warm_hit_builds_nothing(self, build_calls):
        from repro.engine.tasks import build

        spec = _llvm_spec()
        instance = build(spec).source
        func = build(_llvm_spec("linear-scan")).source
        assert build_calls == {"lower": 1, "interference": 1}
        assert build(spec).source is instance
        assert build(_llvm_spec("linear-scan")).source is func
        for strategy in ("briggs", "george", "linear-scan"):
            record = run_task(_llvm_spec(strategy), verify=True)
            assert record["verification"]["status"] == "certified"
        assert build_calls == {"lower": 1, "interference": 1}

    def test_memo_keys_on_k(self, build_calls):
        from repro.engine.tasks import build

        at_maxlive = build(_llvm_spec()).source
        wider = build(_llvm_spec(k=at_maxlive.k + 1)).source
        assert wider.k == at_maxlive.k + 1
        assert wider.graph is not at_maxlive.graph
        assert build_calls == {"lower": 1, "interference": 2}

    def test_rewritten_file_misses(self, tmp_path):
        from repro.engine.tasks import build
        from repro.frontend.corpus import corpus_dir

        path = tmp_path / "f.ll"
        text = (corpus_dir() / "loops.ll").read_text()
        path.write_text(text)
        spec = _llvm_spec(path=str(path))
        first = build(spec).source
        assert build(spec).source is first
        path.write_text(text.replace("@gcd", "@gcd2"))
        with pytest.raises(KeyError):
            build(spec)  # no function gcd any more
        renamed = build(_llvm_spec(path=str(path), function="gcd2")).source
        assert renamed.name == "f:gcd2"
        path.write_text(text + "\n; edited\n")
        edited = build(spec).source
        assert edited is not first
        assert edited.graph.fingerprint() == first.graph.fingerprint()

    def test_wrong_sha256_raises_when_warm(self):
        import hashlib

        from repro.engine.tasks import build
        from repro.frontend.corpus import corpus_dir

        digest = hashlib.sha256(
            (corpus_dir() / "loops.ll").read_bytes()).hexdigest()
        for sha in (None, digest):
            build(_llvm_spec(sha256=sha))
            build(_llvm_spec("linear-scan", sha256=sha))
        for _ in range(2):
            with pytest.raises(ValueError, match="sha256"):
                build(_llvm_spec(sha256="0" * 64))
            with pytest.raises(ValueError, match="sha256"):
                build(_llvm_spec("linear-scan", sha256="0" * 64))

    def test_errors_are_not_cached(self, tmp_path):
        from repro.engine.tasks import _build_memo, build
        from repro.frontend import FrontendSyntaxError

        path = tmp_path / "bad.ll"
        path.write_text("define i32 @f( {\n")
        for _ in range(2):
            with pytest.raises(FrontendSyntaxError):
                build(_llvm_spec(path=str(path), function="f"))
        assert _build_memo == {}

    @pytest.mark.parametrize("verify", [True, False])
    def test_mutated_input_never_reaches_a_later_task(self, monkeypatch,
                                                      verify):
        import repro.engine.tasks as tasks
        from repro.frontend.corpus import corpus_dir, instance_from_path

        spec = _llvm_spec("brute", path="chacha_block.ll",
                          function="chacha_mix")
        from dataclasses import replace

        shared = tasks.build(spec).source
        original = tasks.STRATEGY_TABLE["brute"]

        def mutating(graph, k, **kwargs):
            u = next(iter(graph.vertices))
            v = next(x for x in graph.vertices
                     if x != u and not graph.has_edge(u, x))
            graph.add_edge(u, v)
            return original.run(graph, k, **kwargs)

        monkeypatch.setitem(tasks.STRATEGY_TABLE, "brute",
                            replace(original, run=mutating))
        poisoned = run_task(spec, verify=verify)
        if verify:
            assert [d["code"] for d in
                    poisoned["verification"]["diagnostics"]] == ["ENG002"]
        monkeypatch.setitem(tasks.STRATEGY_TABLE, "brute", original)
        record = run_task(spec, verify=True)
        assert record["verification"]["status"] == "certified"
        rebuilt = tasks.build(spec).source
        assert rebuilt is not shared
        assert list(rebuilt.graph.dense().peels) == [rebuilt.k]
        fresh = instance_from_path(corpus_dir() / "chacha_block.ll",
                                   function="chacha_mix")
        assert rebuilt.graph.fingerprint() == fresh.graph.fingerprint()
        assert record["payload"]["edges"] == fresh.graph.num_edges()

    @pytest.fixture
    def comparisons(self, monkeypatch):
        """The memoised-input comparisons, one entry per call."""
        import repro.engine.tasks as tasks

        calls = []
        original = tasks._unchanged

        def counting(source, fingerprint):
            calls.append(source)
            return original(source, fingerprint)

        monkeypatch.setattr(tasks, "_unchanged", counting)
        return calls

    @pytest.mark.parametrize("verify", [True, False])
    def test_one_comparison_per_task(self, comparisons, verify):
        """A warm pass over the corpus task list compares each input with
        its fingerprint once per task, after the strategy, verified or
        not (twice per verified task while every hit compared)."""
        specs = list(corpus_tasks().values())
        assert len(specs) == 260
        for spec in specs:
            assert run_task(spec, verify=verify)["status"] == "ok"
        comparisons.clear()
        for spec in specs:
            record = run_task(spec, verify=verify)
            assert record["status"] == "ok"
            if verify:
                assert record["verification"]["status"] in (
                    "certified", "failed")
        assert len(comparisons) == len(specs)

    def test_a_payload_only_verification_keeps_inputs_trusted(
            self, comparisons):
        """A ``verify_record`` without ``built=`` (a cache-hit upgrade,
        a traced replay) borrows the memoised input and settles the
        lend with its own ENG002 comparison: the next warm pass still
        compares each input once per task."""
        import repro.engine.tasks as tasks
        from repro.analysis.engine_check import verify_record

        specs = list(corpus_tasks().values())
        for spec in specs:
            record = run_task(spec)
            verification = verify_record(
                spec, {"status": "ok", "payload": record["payload"]})
            assert verification["status"] in ("certified", "failed")
        kept = dict(tasks._build_memo)
        comparisons.clear()
        for spec in specs:
            assert run_task(spec)["status"] == "ok"
        assert len(comparisons) == len(specs) == 260
        assert dict(tasks._build_memo) == kept  # nothing was rebuilt

    def test_a_lend_still_out_makes_a_hit_compare(self, comparisons):
        import repro.engine.tasks as tasks

        spec = _llvm_spec()
        run_task(spec)
        comparisons.clear()
        first, lent = tasks._build(spec, lend=True)
        assert comparisons == []
        second, other = tasks._build(spec, lend=True)
        assert other is lent and second.source is first.source
        assert len(comparisons) == 1
        tasks._settle(other, True)
        tasks._settle(lent, True)
        tasks._build(spec, lend=True)
        assert len(comparisons) == 1

    def test_outside_holder_that_mutates_gets_a_rebuild(self, comparisons):
        """A source handed out by ``build`` may change at any time: every
        later hit compares, so a mutation made after tasks ran on the
        shared input still never reaches a task."""
        import repro.engine.tasks as tasks

        spec = _llvm_spec()
        first = run_task(spec, verify=True)
        held = tasks.build(spec).source
        comparisons.clear()
        for _ in range(2):
            assert run_task(spec, verify=True)["verification"] \
                == first["verification"]
        assert len(comparisons) == 4  # at each hit and after each run
        u, v = next(held.graph.edges())
        held.graph.neighbors_view(u).discard(v)
        held.graph.neighbors_view(v).discard(u)
        second = run_task(spec, verify=True)
        rebuilt = tasks.build(spec).source
        assert rebuilt is not held
        assert (second["result_hash"], second["verification"]) \
            == (first["result_hash"], first["verification"])

    @pytest.mark.parametrize("verify", [True, False])
    def test_mutating_strategy_on_a_trusted_input(self, monkeypatch,
                                                  comparisons, verify):
        """No outside caller ever held the input, so hits compare
        nothing; a strategy that mutates it still fails with ENG002, and
        the next task gets a rebuilt input."""
        from dataclasses import replace

        import repro.engine.tasks as tasks

        spec = _llvm_spec("briggs", path="chacha_block.ll",
                          function="chacha_mix")
        clean = run_task(spec, verify=True)
        original = tasks.STRATEGY_TABLE["briggs"]
        seen = []

        def mutating(graph, k, **kwargs):
            seen.append(graph)
            u = next(iter(graph.vertices))
            v = next(x for x in graph.vertices
                     if x != u and not graph.has_edge(u, x))
            graph.add_edge(u, v)
            return original.run(graph, k, **kwargs)

        monkeypatch.setitem(tasks.STRATEGY_TABLE, "briggs",
                            replace(original, run=mutating))
        comparisons.clear()
        poisoned = run_task(spec, verify=verify)
        assert len(comparisons) == 1
        if verify:
            assert [d["code"] for d in
                    poisoned["verification"]["diagnostics"]] == ["ENG002"]
        monkeypatch.setitem(tasks.STRATEGY_TABLE, "briggs", original)
        again = run_task(spec, verify=True)
        assert (again["result_hash"], again["verification"]) \
            == (clean["result_hash"], clean["verification"])
        assert tasks.build(spec).source.graph is not seen[0]

    def test_mutated_function_is_rebuilt(self, monkeypatch):
        import repro.intervals.linear_scan as linear_scan
        from repro.engine.tasks import build
        from repro.ir.instructions import Instr

        spec = _chacha_allocation()
        shared, shared_facts = build(spec).source, build(spec).facts
        original = linear_scan.linear_scan_allocate

        def mutating(func, k, **kwargs):
            func.blocks[func.entry].instrs.insert(0, Instr("nop"))
            return original(func, k, **kwargs)

        monkeypatch.setattr(linear_scan, "linear_scan_allocate", mutating)
        record = run_task(spec, verify=True)
        assert [d["code"] for d in
                record["verification"]["diagnostics"]] == ["ENG002"]
        monkeypatch.setattr(linear_scan, "linear_scan_allocate", original)
        assert run_task(spec, verify=True)["verification"]["status"] \
            == "certified"
        rebuilt = build(spec)
        assert rebuilt.source is not shared
        assert rebuilt.facts is not shared_facts

    def test_facts_follow_their_entry(self):
        """A memoised function or graph changed between two tasks, even
        behind its mutators' back, misses the memo: the next task gets a
        fresh entry with fresh facts and the same record."""
        import repro.engine.tasks as tasks

        spec = _llvm_spec("linear-scan", k=2)
        first = run_task(spec, verify=True)
        func, facts = tasks.build(spec).source, tasks.build(spec).facts
        assert facts.function is func and facts.maxlive >= 2
        func.frequency[func.entry] += 1.0
        second = run_task(spec, verify=True)
        again, fresh = tasks.build(spec).source, tasks.build(spec).facts
        assert again is not func and fresh is not facts
        assert fresh.function is again
        assert (second["result_hash"], second["verification"]) \
            == (first["result_hash"], first["verification"])

        spec = _llvm_spec("briggs")
        first = run_task(spec, verify=True)
        instance = tasks.build(spec).source
        twin = instance.graph.dense()
        assert instance.k in twin.peels
        u, v = next(instance.graph.edges())
        instance.graph.neighbors_view(u).discard(v)
        instance.graph.neighbors_view(v).discard(u)
        assert instance.graph.dense() is twin  # no mutator ran
        second = run_task(spec, verify=True)
        rebuilt = tasks.build(spec).source
        assert rebuilt is not instance
        assert rebuilt.graph.dense() is not twin
        assert (second["result_hash"], second["verification"]) \
            == (first["result_hash"], first["verification"])

    def test_cached_facts_reject_writes(self):
        import repro.engine.tasks as tasks

        spec = _llvm_spec("linear-scan")
        assert run_task(spec, verify=True)["verification"]["status"] \
            == "certified"
        built = tasks.build(spec)
        func, facts = built.source, built.facts
        variables, live_in, live_out = facts.liveness
        iset = facts.intervals
        names, rows = facts.rows
        var, block = variables[0], func.entry
        instance = tasks.build(_llvm_spec("briggs")).source
        assert run_task(_llvm_spec("briggs"), verify=True)["status"] == "ok"
        twin = instance.graph.dense()
        rounds, _ = twin.peels[instance.k]
        writes = [
            (variables, 0, var), (live_in, block, 0), (live_out, block, 0),
            (iset.intervals, var, iset[var]), (iset.points.entry, block, 0),
            (iset.points.sizes, block, 0), (names, 0, var), (rows, 0, 0),
            (facts.costs, var, 0.0), (rounds, 0, 0),
            (twin.peels[instance.k], 1, 0),
            (twin.peels, instance.k, (rounds, 0)),
        ]
        for container, key, value in writes:
            with pytest.raises(TypeError):
                container[key] = value
        with pytest.raises(AttributeError):
            facts.maxlive = 0

    def test_mutated_spill_rewrite_is_rebuilt(self):
        """A memoised spill rewrite changed between two tasks is
        rebuilt, and the next record is the same."""
        import repro.engine.tasks as tasks
        from repro.ir.instructions import Instr

        def comparable(record):
            return json.dumps({key: value for key, value in record.items()
                               if key not in ("seconds", "trace")},
                              sort_keys=True)

        spec = _llvm_spec("linear-scan", k=2)
        first = run_task(spec, verify=True)
        assert first["verification"]["status"] == "certified"
        facts = tasks.build(spec).facts
        stale = {path: link for path, (link, _) in facts._links.items()}
        assert stale
        for link in stale.values():
            link.function.blocks[link.function.entry].instrs.insert(
                0, Instr("nop"))
        second = run_task(spec, verify=True)
        assert comparable(second) == comparable(first)
        assert tasks.build(spec).facts is facts
        for path, (link, fingerprint) in facts._links.items():
            assert link is not stale[path]
            assert link.function.fingerprint() == fingerprint

    def test_spill_rewrites_are_bounded(self, monkeypatch):
        """Allocating one function at every k from 2 to Maxlive with
        both variants keeps at most ``SPILLED_MEMO_SIZE`` rewrites, and
        evicting them changes no record."""
        import repro.engine.tasks as tasks
        from repro.intervals import linear_scan

        def sweep():
            hashes, seen = [], set()
            maxlive = tasks.build(_llvm_spec(
                "linear-scan", path="calls.ll", function="dot3")).k
            for k in range(2, maxlive + 1):
                for strategy in ("linear-scan", "second-chance"):
                    spec = _llvm_spec(strategy, k=k, path="calls.ll",
                                      function="dot3")
                    record = run_task(spec, verify=True)
                    assert record["verification"]["status"] \
                        == "certified", (k, strategy)
                    hashes.append(record["result_hash"])
                    links = tasks.build(spec).facts._links
                    assert len(links) <= linear_scan.SPILLED_MEMO_SIZE
                    seen.update(links)
            return hashes, seen

        hashes, seen = sweep()
        assert len(seen) > linear_scan.SPILLED_MEMO_SIZE
        tasks._build_memo.clear()
        monkeypatch.setattr(linear_scan, "SPILLED_MEMO_SIZE", 1)
        assert sweep()[0] == hashes

    def test_bare_name_reads_the_corpus_whatever_the_cwd(
            self, tmp_path, monkeypatch):
        """One spec reads one file: a bare corpus file name resolves in
        the corpus even when the working directory holds a file of that
        name; ``./loops.ll`` names the local one."""
        pinned = json.loads((Path(__file__).parent / "data"
                             / "result_hashes.json").read_text())["hashes"]
        (tmp_path / "loops.ll").write_text(
            "define i32 @gcd(i32 %a, i32 %b) {\n"
            "entry:\n"
            "  %s = add i32 %a, %b\n"
            "  ret i32 %s\n"
            "}\n")
        monkeypatch.chdir(tmp_path)
        record = run_task(_llvm_spec("linear-scan"), verify=True)
        assert record["result_hash"] == pinned["loops.ll:gcd:linear-scan:k=0"]
        local = run_task(_llvm_spec("linear-scan", path="./loops.ll"),
                         verify=True)
        assert local["verification"]["status"] == "certified"
        assert local["result_hash"] != record["result_hash"]

    def test_memo_is_bounded(self, monkeypatch):
        from repro.engine import tasks

        monkeypatch.setattr(tasks, "_BUILD_MEMO_SIZE", 3)
        for name in ("gcd", "sum_squares", "popcount"):
            tasks.build(_llvm_spec(function=name))
        assert [(key[0], key[-2]) for key in tasks._build_memo] == [
            ("instance", "sum_squares"),
            ("function", "popcount"),
            ("instance", "popcount"),
        ]

    def test_threads_share_a_churning_memo(self, monkeypatch):
        """Eight threads, three functions, room for two entries: every
        lookup evicts or rebuilds, and none may fail or see a wrong
        instance."""
        import sys
        import threading

        from repro.engine import tasks

        monkeypatch.setattr(tasks, "_BUILD_MEMO_SIZE", 2)
        specs = [_llvm_spec(function=name)
                 for name in ("gcd", "sum_squares", "popcount")]
        expected = [tasks._fingerprint(tasks.build(spec).source)
                    for spec in specs]
        errors = []

        def work(offset):
            try:
                for i in range(30):
                    n = (offset + i) % len(specs)
                    built = tasks.build(specs[n])
                    instance = built.source
                    assert built.fingerprint == expected[n]
                    assert tasks._fingerprint(instance) == expected[n]
            except Exception as exc:  # threads cannot raise into the test
                errors.append(exc)

        threads = [threading.Thread(target=work, args=(t,))
                   for t in range(8)]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=120)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        assert errors == []
        assert len(tasks._build_memo) <= 2

    def test_warm_and_cold_runs_agree(self):
        """Every e2ebench task shape on the two largest files: a warm
        memo and a memo cleared before each task give the same
        payload, result_hash and verification."""
        from repro.engine import tasks

        specs = [spec for spec in corpus_tasks().values()
                 if spec.params_dict()["path"] in ("chacha_block.ll",
                                                   "interp.ll")]
        assert len(specs) > 26

        def outcome(spec):
            record = run_task(spec, verify=True)
            return (record["payload"], record["result_hash"],
                    record["verification"])

        cold = []
        for spec in specs:
            tasks._build_memo.clear()
            cold.append(outcome(spec))
        tasks._build_memo.clear()
        warm = [outcome(spec) for spec in specs + specs]
        assert warm == cold + cold

    @pytest.fixture
    def intv001_walks(self, monkeypatch):
        """The INTV001 row walks, one entry per walk (the allocation
        passes' ``_row_pairs`` as ``interval_check`` calls it)."""
        import repro.analysis.interval_check as interval_check

        walks = []
        original = interval_check._row_pairs

        def counting(*args):
            walks.append(args[0])
            return original(*args)

        monkeypatch.setattr(interval_check, "_row_pairs", counting)
        return walks

    def test_warm_verify_walks_no_intv001_rows(self, intv001_walks):
        """INTV001 reads only the final code, so its walk lives on the
        final code's memoised facts: a second verified pass over the
        allocation tasks walks no rows for it."""
        from repro.engine.tasks import ALLOCATION_STRATEGIES

        specs = [spec for spec in corpus_tasks().values()
                 if spec.strategy in ALLOCATION_STRATEGIES]
        assert len(specs) == 62
        first = [run_task(spec, verify=True)["verification"]
                 for spec in specs]
        assert 0 < len(intv001_walks) <= len(specs)
        intv001_walks.clear()
        second = [run_task(spec, verify=True)["verification"]
                  for spec in specs]
        assert intv001_walks == []
        assert second == first

    def test_mutated_function_derives_intv001_again(self, intv001_walks):
        """A memoised input changed between two tasks gets fresh facts,
        and INTV001 is walked again on them, with the same verdict."""
        import repro.engine.tasks as tasks

        spec = _llvm_spec("linear-scan")
        first = run_task(spec, verify=True)
        run_task(spec, verify=True)
        assert len(intv001_walks) == 1
        func, facts = tasks.build(spec).source, tasks.build(spec).facts
        func.frequency[func.entry] += 1.0
        second = run_task(spec, verify=True)
        assert tasks.build(spec).facts is not facts
        assert len(intv001_walks) == 2
        assert second["verification"] == first["verification"] \
            == {"status": "certified", "diagnostics": []}

    #: sha256 of every corpus task's verification, as the test below
    #: lists it: the record's dict, every diagnostic the passes yield
    #: (``info`` included) and the verify budget's steps.  Taken when
    #: every pass derived its facts per context, under several
    #: ``PYTHONHASHSEED`` values.
    VERIFY_OUTCOMES = (
        "1f55f8bc071cbbc4a6fd4e7857f1af722b55136ca8c4fa55010d0fc423c927c2")

    def test_cold_and_warm_verification_match_the_pinned_outcome(
            self, monkeypatch):
        """Facts kept beside the input change no verdict, diagnostic or
        step count: a cold pass and a warm pass over the corpus tasks
        give the pinned outcome."""
        import hashlib

        from repro.analysis import engine_check

        seen = []
        original = engine_check._certify

        def recording(spec, payload, budget, tracer, built):
            diagnostics = original(spec, payload, budget, tracer, built)
            seen.append(([d.as_dict() for d in diagnostics], budget.steps))
            return diagnostics

        monkeypatch.setattr(engine_check, "_certify", recording)

        def one_pass():
            out = []
            for name, spec in sorted(corpus_tasks().items()):
                seen.clear()
                record = run_task(spec, verify=True)
                ((diagnostics, steps),) = seen
                out.append([name, record["verification"], diagnostics,
                            steps])
            return out

        cold = one_pass()
        warm = one_pass()
        assert len(cold) == 260 and warm == cold
        digest = hashlib.sha256(
            json.dumps(cold, sort_keys=True).encode()).hexdigest()
        assert digest == self.VERIFY_OUTCOMES


class TestCorpusNames:
    """``_corpus_file``: the one corpus-name memo of ``run_task`` and
    the service's admission check."""

    @pytest.fixture
    def corpus(self, tmp_path, monkeypatch):
        directory = tmp_path / "corpus"
        directory.mkdir()
        monkeypatch.setenv("REPRO_LLVM_CORPUS", str(directory))
        return directory

    def test_a_name_added_after_a_miss_resolves(self, corpus):
        from repro.engine.tasks import _corpus_file

        assert _corpus_file("late.ll") is None
        (corpus / "late.ll").write_text("")
        assert _corpus_file("late.ll") == corpus / "late.ll"

    def test_the_variable_picks_the_directory(self, corpus, tmp_path,
                                              monkeypatch):
        from repro.engine.tasks import _corpus_file

        other = tmp_path / "other"
        other.mkdir()
        for directory in (corpus, other):
            (directory / "f.ll").write_text("")
        assert _corpus_file("f.ll") == corpus / "f.ll"
        monkeypatch.setenv("REPRO_LLVM_CORPUS", str(other))
        assert _corpus_file("f.ll") == other / "f.ll"
        monkeypatch.setenv("REPRO_LLVM_CORPUS", str(corpus))
        assert _corpus_file("f.ll") == corpus / "f.ll"

    def test_a_directory_is_not_a_corpus_file(self, corpus):
        from repro.engine.tasks import _corpus_file

        (corpus / "d.ll").mkdir()
        assert _corpus_file("d.ll") is None
        assert _corpus_file("../corpus") is None

    def test_a_deleted_corpus_file_is_an_error_not_a_local_file(
            self, corpus, tmp_path, monkeypatch):
        """A remembered name whose file was deleted fails to open in
        the corpus: a one-line ``FileNotFoundError`` record, even when
        the working directory holds a file of that name."""
        from repro.engine.pool import _guarded_run
        from repro.frontend.corpus import _CHECKOUT_CORPUS

        text = (_CHECKOUT_CORPUS / "loops.ll").read_text()
        (corpus / "mine.ll").write_text(text)
        spec = _llvm_spec("linear-scan", path="mine.ll")
        assert _guarded_run(spec, verify=True)["status"] == "ok"
        (corpus / "mine.ll").unlink()
        local = tmp_path / "cwd"
        local.mkdir()
        (local / "mine.ll").write_text(text)
        monkeypatch.chdir(local)
        record = _guarded_run(spec, verify=True)
        assert record["status"] == "error"
        assert record["error"].startswith("FileNotFoundError: ")
        assert str(corpus / "mine.ll") in record["error"]
        assert "\n" not in record["error"]

    def test_admission_and_run_task_share_the_memo(self, corpus,
                                                   monkeypatch):
        """A name the admission check found costs ``run_task`` no
        ``stat``."""
        from repro.frontend.corpus import _CHECKOUT_CORPUS
        from repro.serve.protocol import parse_task_request

        (corpus / "shared.ll").write_text(
            (_CHECKOUT_CORPUS / "loops.ll").read_text())
        request = parse_task_request({"task": {
            "generator": "llvm", "seed": 0, "strategy": "linear-scan",
            "params": {"path": "shared.ll", "function": "gcd"}}})
        stats = []
        original = Path.is_file

        def counting(path):
            stats.append(path)
            return original(path)

        monkeypatch.setattr(Path, "is_file", counting)
        assert run_task(request.spec)["status"] == "ok"
        assert stats == []
