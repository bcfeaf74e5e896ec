"""Tests for repro.serve: HTTP codec, admission control, request
schema, the load-generator helpers, ``repro serve`` flag validation,
end-to-end service behaviour on an ephemeral port (single requests,
concurrent bursts, cache-hit replay, backpressure, deadlines, drain,
the in-memory cache tier), remote campaign dispatch, and fault
injection on the served path (truncated cache entries, malformed or
cut-off replies)."""

import asyncio
import json
import threading

import pytest

from repro.cli import main
from repro.engine import Campaign, run_campaign, run_campaign_remote
from repro.engine.cache import ResultCache
from repro.engine.tasks import TaskSpec, run_task, task_hash
from repro.frontend.corpus import corpus_paths
from repro.obs.names import CACHE_FILE_HITS, CACHE_MEMORY_HITS
from repro.serve import (
    AdmissionController,
    ClassLimit,
    LoadConfig,
    ServeConfig,
    Service,
    parse_task_request,
    run_load,
)
from repro.serve.client import drain, percentile, request_once, wait_healthy
from repro.serve.http import (
    HttpError,
    json_response,
    read_request,
    read_response,
    render_request,
    render_response,
)
from repro.serve.protocol import HEAVY, LIGHT, request_class


TIMEOUT = 60.0


def run(coro, timeout=TIMEOUT):
    """Drive one async test body with a hang backstop."""
    return asyncio.run(asyncio.wait_for(coro, timeout))


def reader_for(data: bytes) -> asyncio.StreamReader:
    reader = asyncio.StreamReader()
    reader.feed_data(data)
    reader.feed_eof()
    return reader


# ----------------------------------------------------------------------
# HTTP codec
# ----------------------------------------------------------------------
class TestHttpCodec:
    def test_request_roundtrip(self):
        async def body():
            wire = render_request("post", "/v1/task", b'{"a": 1}',
                                  host="example")
            request = await read_request(reader_for(wire))
            assert request.method == "POST"
            assert request.path == "/v1/task"
            assert request.json() == {"a": 1}
            assert request.headers["host"] == "example"
            assert request.keep_alive
        run(body())

    def test_response_roundtrip(self):
        async def body():
            wire = render_response(429, b'{"error": "full"}',
                                   keep_alive=False)
            response = await read_response(reader_for(wire))
            assert response.status == 429
            assert response.json() == {"error": "full"}
            assert response.headers["connection"] == "close"
        run(body())

    def test_query_string_split(self):
        async def body():
            wire = render_request("GET", "/metrics?format=prom")
            request = await read_request(reader_for(wire))
            assert request.path == "/metrics"
            assert request.query == "format=prom"
        run(body())

    def test_connection_close_header(self):
        async def body():
            wire = render_request("GET", "/healthz", keep_alive=False)
            request = await read_request(reader_for(wire))
            assert not request.keep_alive
        run(body())

    def test_clean_eof_is_none(self):
        async def body():
            assert await read_request(reader_for(b"")) is None
            assert await read_response(reader_for(b"")) is None
        run(body())

    def test_malformed_request_line(self):
        async def body():
            with pytest.raises(HttpError) as exc:
                await read_request(reader_for(b"NONSENSE\r\n\r\n"))
            assert exc.value.status == 400
        run(body())

    def test_malformed_header_line(self):
        async def body():
            wire = b"GET / HTTP/1.1\r\nbroken header\r\n\r\n"
            with pytest.raises(HttpError) as exc:
                await read_request(reader_for(wire))
            assert exc.value.status == 400
        run(body())

    def test_bad_content_length(self):
        async def body():
            for value in (b"abc", b"-5"):
                wire = (b"POST / HTTP/1.1\r\ncontent-length: "
                        + value + b"\r\n\r\n")
                with pytest.raises(HttpError) as exc:
                    await read_request(reader_for(wire))
                assert exc.value.status == 400
        run(body())

    def test_body_over_limit_is_413(self):
        async def body():
            wire = render_request("POST", "/v1/task", b"x" * 100)
            with pytest.raises(HttpError) as exc:
                await read_request(reader_for(wire), max_body=10)
            assert exc.value.status == 413
        run(body())

    def test_huge_headers_are_413(self):
        async def body():
            wire = (b"GET / HTTP/1.1\r\nx-pad: "
                    + b"a" * (70 * 1024) + b"\r\n\r\n")
            with pytest.raises(HttpError) as exc:
                await read_request(reader_for(wire))
            assert exc.value.status == 413
        run(body())

    def test_chunked_rejected_501(self):
        async def body():
            wire = (b"POST / HTTP/1.1\r\n"
                    b"transfer-encoding: chunked\r\n\r\n")
            with pytest.raises(HttpError) as exc:
                await read_request(reader_for(wire))
            assert exc.value.status == 501
        run(body())

    def test_truncated_body_is_400(self):
        async def body():
            wire = b"POST / HTTP/1.1\r\ncontent-length: 50\r\n\r\nshort"
            with pytest.raises(HttpError) as exc:
                await read_request(reader_for(wire))
            assert exc.value.status == 400
        run(body())

    def test_invalid_json_body_raises_400(self):
        async def body():
            wire = render_request("POST", "/", b"{nope")
            request = await read_request(reader_for(wire))
            with pytest.raises(HttpError) as exc:
                request.json()
            assert exc.value.status == 400
        run(body())


# ----------------------------------------------------------------------
# admission control
# ----------------------------------------------------------------------
class TestAdmission:
    def test_queue_bound_gives_429(self):
        async def body():
            admission = AdmissionController(
                {"light": ClassLimit(2, 1)}
            )
            assert admission.try_enter("light") is None
            assert admission.try_enter("light") is None
            status, reason = admission.try_enter("light")
            assert status == 429
            assert "queue full" in reason
            admission.leave("light")
            assert admission.try_enter("light") is None
            assert admission.in_system("light") == 2
        run(body())

    def test_drain_gives_503_and_resolves_when_empty(self):
        async def body():
            admission = AdmissionController(
                {"light": ClassLimit(4, 2)}
            )
            assert admission.try_enter("light") is None
            admission.start_drain()
            assert admission.draining
            status, _reason = admission.try_enter("light")
            assert status == 503

            waiter = asyncio.create_task(admission.wait_drained())
            await asyncio.sleep(0.01)
            assert not waiter.done()  # one request still in system
            admission.leave("light")
            await asyncio.wait_for(waiter, 1.0)
        run(body())

    def test_slot_caps_concurrency(self):
        async def body():
            admission = AdmissionController(
                {"heavy": ClassLimit(8, 2)}
            )
            running = 0
            peak = 0

            async def work():
                nonlocal running, peak
                async with admission.slot("heavy"):
                    running += 1
                    peak = max(peak, running)
                    await asyncio.sleep(0.02)
                    running -= 1

            await asyncio.gather(*[work() for _ in range(6)])
            assert peak == 2
        run(body())

    def test_unknown_class_raises(self):
        async def body():
            admission = AdmissionController({"light": ClassLimit(1, 1)})
            with pytest.raises(ValueError):
                admission.try_enter("mystery")
        run(body())

    def test_limit_validation(self):
        with pytest.raises(ValueError):
            ClassLimit(0, 1)
        with pytest.raises(ValueError):
            ClassLimit(1, 0)

    def test_gauges(self):
        async def body():
            admission = AdmissionController(
                {"light": ClassLimit(5, 2)}
            )
            admission.try_enter("light")
            gauges = admission.gauges()
            assert gauges["serve_draining"] == 0.0
            assert gauges['serve_in_system{class="light"}'] == 1.0
            assert gauges['serve_queue_limit{class="light"}'] == 5.0
        run(body())


# ----------------------------------------------------------------------
# request schema
# ----------------------------------------------------------------------
def _task_doc(seed=1, **extra):
    doc = {"task": {"generator": "pressure", "seed": seed, "k": 5,
                    "strategy": "briggs", "params": {"rounds": 4}}}
    doc.update(extra)
    return doc


class TestProtocol:
    def test_parse_minimal(self):
        request = parse_task_request(_task_doc())
        assert request.spec.generator == "pressure"
        assert request.key == task_hash(request.spec)
        assert request.verify is False
        assert request.deadline is None
        assert request.cache_mode == "use"
        assert request.admission_class == LIGHT

    def test_parse_full(self):
        request = parse_task_request(
            _task_doc(verify=True, deadline=2, cache="refresh")
        )
        assert request.verify is True
        assert request.deadline == 2.0
        assert request.cache_mode == "refresh"

    @pytest.mark.parametrize("document", [
        "not an object",
        {"task": {"generator": "pressure", "seed": 1}, "bogus": 1},
        {},
        {"task": "nope"},
        {"task": {"generator": "pressure"}},  # seed is mandatory
        _task_doc(verify="yes"),
        _task_doc(deadline=0),
        _task_doc(deadline=-2.0),
        _task_doc(deadline=True),
        _task_doc(cache="maybe"),
        # k must be an int >= 0: not a traceback from the worker (500),
        # a silent k = 1 (true) or a silent Maxlive (-1)
        *[{"task": {"generator": "llvm", "seed": 0, "k": k,
                    "strategy": strategy,
                    "params": {"path": "loops.ll", "function": "gcd"}}}
          for k in (-1, "3", True, None)
          for strategy in ("briggs", "linear-scan")],
        # budgets must be numbers: not a TypeError in the worker (500)
        # or a silent 1-step budget (true)
        *[{"task": {**_task_doc()["task"], **budget}}
          for budget in ({"max_steps": "3"}, {"max_steps": True},
                         {"max_seconds": "2"}, {"max_seconds": True})],
        # the service reads only the corpus and imports nothing: an llvm
        # path that is not a corpus file name, a dotted generator and a
        # custom call are refused before anything is opened or imported
        *[{"task": {"generator": "llvm", "seed": 0, "params": params}}
          for params in ({"path": "/etc/hostname"},
                         {"path": "../llvm/loops.ll"}, {"path": "missing.ll"},
                         {"path": ""}, {"path": 3}, {})],
        {"task": {"generator": "builtins:dict", "seed": 0,
                  "strategy": "call"}},
        {"task": {"generator": "repro.challenge.generator:pressure_instance",
                  "seed": 0}},
        {"task": {"generator": "pressure", "seed": 0, "strategy": "call"}},
        # an allocator needs code: not a ValueError in the worker (500)
        {"task": {"generator": "program", "seed": 0,
                  "strategy": "linear-scan"}},
    ])
    def test_rejects_bad_documents(self, document):
        with pytest.raises(HttpError) as exc:
            parse_task_request(document)
        assert exc.value.status == 400

    def test_serves_corpus_file_names(self):
        for path in corpus_paths():
            request = parse_task_request({"task": {
                "generator": "llvm", "seed": 0, "strategy": "linear-scan",
                "params": {"path": path.name}}})
            assert request.spec.params_dict()["path"] == path.name

    def test_a_warm_name_memo_admits_nothing_else(self):
        """Admission reads the corpus-name memo ``run_task`` fills; with
        every corpus name in it, a path outside the corpus is still a
        400 and adds nothing to it."""
        from repro.engine import tasks
        from repro.serve.protocol import _check_served

        names = {path.name for path in corpus_paths()}
        for name in names:
            assert tasks._corpus_file(name) is not None
        before = dict(tasks._corpus_names)
        assert {name for _, name in before} >= names
        for path in ("/etc/hostname", "../llvm/loops.ll", "missing.ll"):
            with pytest.raises(HttpError) as exc:
                _check_served(TaskSpec(generator="llvm", seed=0,
                                       params={"path": path}))
            assert exc.value.status == 400
        assert tasks._corpus_names == before


    def test_request_class(self):
        light = TaskSpec(generator="pressure", seed=1, k=5,
                         strategy="briggs")
        exact = TaskSpec(generator="pressure", seed=1, k=5,
                         strategy="exact")
        fault = TaskSpec(generator="sleep", seed=1)
        assert request_class(light) == LIGHT
        assert request_class(exact) == HEAVY
        assert request_class(fault) == HEAVY


# ----------------------------------------------------------------------
# ``repro serve`` flag validation
# ----------------------------------------------------------------------
@pytest.mark.parametrize("flags", [
    ["--workers", "-1"],
    ["--light-queue", "0"],
    ["--heavy-concurrency", "0"],
    ["--mem-entries", "0"],
    ["--mem-entries", "-1"],
    ["--timeout", "0"],
])
def test_serve_rejects_bad_numeric_flags(flags, monkeypatch, capsys):
    import repro.serve

    def never(*args, **kwargs):
        raise AssertionError("repro serve started despite a bad flag")

    # validation must come before anything binds or spawns
    monkeypatch.setattr(repro.serve, "Service", never)
    assert main(["serve", "--port", "8080", "--cache-dir", "", *flags]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and flags[-2] in err, err


# ----------------------------------------------------------------------
# end-to-end service
# ----------------------------------------------------------------------
async def _start(**overrides) -> "tuple[Service, str]":
    overrides.setdefault("port", 0)
    overrides.setdefault("workers", 0)
    service = Service(ServeConfig(**overrides))
    port = await service.start()
    return service, f"http://127.0.0.1:{port}"


class TestServiceEndToEnd:
    def test_single_request_roundtrip(self):
        async def body():
            service, url = await _start()
            try:
                health = await wait_healthy(url, timeout=5.0)
                assert health["status"] == "ok"
                response = await request_once(
                    url, "POST", "/v1/task", _task_doc()
                )
                assert response.status == 200
                document = response.json()
                assert document["record"]["status"] == "ok"
                assert "trace" not in document["record"]
                assert document["served"]["cache"] == "miss"
                assert document["served"]["class"] == LIGHT
            finally:
                await service.stop()
        run(body())

    def test_routing_errors(self):
        async def body():
            service, url = await _start()
            try:
                response = await request_once(url, "GET", "/nope")
                assert response.status == 404
                response = await request_once(url, "GET", "/v1/task")
                assert response.status == 405
                response = await request_once(
                    url, "POST", "/v1/task", {"bogus": 1}
                )
                assert response.status == 400
                assert "unknown request fields" in response.json()["error"]
                negative_k = _task_doc()
                negative_k["task"]["k"] = -1
                response = await request_once(url, "POST", "/v1/task",
                                              negative_k)
                assert response.status == 400
                assert "k must be" in response.json()["error"]
            finally:
                await service.stop()
        run(body())

    def test_concurrent_burst_gets_own_records(self):
        async def body():
            service, url = await _start()
            try:
                responses = await asyncio.gather(*[
                    request_once(url, "POST", "/v1/task", _task_doc(seed=s))
                    for s in range(6)
                ])
                assert [r.status for r in responses] == [200] * 6
                # everyone got *their* record, in request order
                seeds = [r.json()["record"]["task"]["seed"]
                         for r in responses]
                assert seeds == list(range(6))
            finally:
                await service.stop()
        run(body())

    def test_cache_replay_and_modes(self, tmp_path):
        async def body():
            service, url = await _start(cache_dir=str(tmp_path / "c"))
            try:
                first = await request_once(url, "POST", "/v1/task",
                                           _task_doc())
                assert first.json()["served"]["cache"] == "miss"
                second = await request_once(url, "POST", "/v1/task",
                                            _task_doc())
                assert second.status == 200
                assert second.json()["served"]["cache"] == "hit"
                assert (second.json()["record"]["result_hash"]
                        == first.json()["record"]["result_hash"])
                assert service.tracer.counters["serve.cache_hit"] == 1

                bypass = await request_once(
                    url, "POST", "/v1/task", _task_doc(cache="bypass")
                )
                assert bypass.json()["served"]["cache"] == "bypass"
                refresh = await request_once(
                    url, "POST", "/v1/task", _task_doc(cache="refresh")
                )
                assert refresh.json()["served"]["cache"] == "refresh"
                # only the probe-and-hit path counts as a hit
                assert service.tracer.counters["serve.cache_hit"] == 1
            finally:
                await service.stop()
        run(body())

    def test_cache_hit_verification_upgrade(self, tmp_path):
        async def body():
            service, url = await _start(cache_dir=str(tmp_path / "c"))
            try:
                plain = await request_once(url, "POST", "/v1/task",
                                           _task_doc())
                assert "verification" not in plain.json()["record"]
                upgraded = await request_once(
                    url, "POST", "/v1/task", _task_doc(verify=True)
                )
                document = upgraded.json()
                assert document["served"]["cache"] == "hit"
                assert document["record"]["verification"]["status"] \
                    == "certified"
                assert service.tracer.counters["serve.verify_upgrades"] == 1
            finally:
                await service.stop()
        run(body())

    def test_backpressure_429_under_burst(self):
        async def body():
            service, url = await _start(
                heavy_queue=1, heavy_concurrency=1,
            )
            try:
                doc = {"task": {"generator": "sleep", "seed": 0,
                                "params": {"seconds": 0.3}}}
                responses = await asyncio.gather(*[
                    request_once(url, "POST", "/v1/task",
                                 {**doc, "task": {**doc["task"], "seed": s}})
                    for s in range(4)
                ])
                statuses = sorted(r.status for r in responses)
                assert statuses.count(200) == 1
                assert statuses.count(429) == 3
                rejected = [r for r in responses if r.status == 429]
                assert all("queue full" in r.json()["error"]
                           for r in rejected)
                assert service.tracer.counters["serve.rejected_429"] == 3
            finally:
                await service.stop()
        run(body())

    def test_expired_deadline_is_budget_exceeded(self, tmp_path):
        async def body():
            service, url = await _start(
                cache_dir=str(tmp_path / "c"), heavy_concurrency=1,
            )
            try:
                # hold the only heavy dispatch slot, so the deadline is
                # spent while the request waits for it
                blocker = asyncio.ensure_future(request_once(
                    url, "POST", "/v1/task",
                    {"task": {"generator": "sleep", "seed": 1,
                              "params": {"seconds": 0.2}}},
                ))
                while service.admission.in_system(HEAVY) == 0:
                    await asyncio.sleep(0.005)
                doc = {"task": {"generator": "sleep", "seed": 0,
                                "params": {"seconds": 30.0}},
                       "deadline": 0.001}
                response = await request_once(url, "POST", "/v1/task", doc)
                assert (await blocker).status == 200
                assert response.status == 200
                record = response.json()["record"]
                assert record["status"] == "budget_exceeded"
                assert record["payload"]["reason"] == "deadline"
                # deadline-shaped outcomes must never enter the cache
                spec = TaskSpec(generator="sleep", seed=0,
                                params={"seconds": 30.0})
                assert service.cache.get(task_hash(spec)) is None
            finally:
                await service.stop()
        run(body(), timeout=20.0)

    def test_metrics_exposition(self):
        async def body():
            service, url = await _start()
            try:
                await request_once(url, "POST", "/v1/task", _task_doc())
                response = await request_once(url, "GET", "/metrics")
                assert response.status == 200
                assert response.headers["content-type"].startswith(
                    "text/plain"
                )
                text = response.body.decode()
                assert "repro_serve_requests_total 1" in text
                assert "# TYPE repro_serve_requests_total counter" in text
                assert "repro_serve_pool_workers 0" in text
                assert 'repro_serve_in_system{class="light"} 0' in text
                assert "repro_serve_uptime_seconds" in text
            finally:
                await service.stop()
        run(body())

    def test_drain_refuses_new_work_even_cached(self, tmp_path):
        async def body():
            service, url = await _start(cache_dir=str(tmp_path / "c"))
            try:
                await request_once(url, "POST", "/v1/task", _task_doc())
                report = await request_once(url, "POST", "/drain")
                assert report.status == 200
                assert report.json()["drained"] is True
                assert report.json()["in_system"] == 0

                # the same request is cached, but drain refuses it anyway
                refused = await request_once(url, "POST", "/v1/task",
                                             _task_doc())
                assert refused.status == 503
                health = await request_once(url, "GET", "/healthz")
                assert health.status == 503
                assert health.json()["status"] == "draining"
                await asyncio.wait_for(service.wait_drained(), 5.0)
            finally:
                await service.stop()
        run(body())

    def test_error_record_maps_to_500(self):
        async def body():
            # a real subprocess worker: "crash" calls os._exit, which
            # inline (workers=0) execution cannot contain
            service, url = await _start(workers=1)
            try:
                doc = {"task": {"generator": "crash", "seed": 0}}
                response = await request_once(url, "POST", "/v1/task", doc)
                assert response.status == 500
                assert response.json()["record"]["status"] in (
                    "crashed", "error",
                )
            finally:
                await service.stop()
        run(body())


    def test_error_record_is_one_line(self):
        async def body():
            service, url = await _start()
            try:
                # no register bound below k = 0 exists: the task raises
                doc = {"task": {"generator": "program", "seed": 0, "k": 0,
                                "strategy": "briggs"}}
                response = await request_once(url, "POST", "/v1/task", doc)
                assert response.status == 500
                error = response.json()["record"]["error"]
                assert error.startswith("RuntimeError: register pressure")
                assert "\n" not in error and "Traceback" not in error
            finally:
                await service.stop()
        run(body())

    def test_drain_with_an_idle_keep_alive_connection_is_quiet(self):
        """``POST /drain`` while a client keeps an idle connection open
        logs no ``CancelledError`` traceback of that connection's
        handler."""
        import http.client
        import os
        import re
        import subprocess
        import sys
        from pathlib import Path

        root = Path(__file__).resolve().parent.parent
        env = dict(os.environ, PYTHONPATH=str(root / "src"))
        proc = subprocess.Popen(
            [sys.executable, "-m", "repro", "serve", "--port", "0",
             "--workers", "1", "--cache-dir", ""],
            cwd=root, env=env, stdout=subprocess.PIPE,
            stderr=subprocess.PIPE, text=True, start_new_session=True,
        )
        try:
            port = int(re.search(r"http://[^\s]+:(\d+)",
                                 proc.stdout.readline()).group(1))
            idle = http.client.HTTPConnection("127.0.0.1", port, timeout=30)
            idle.request("GET", "/healthz")
            assert idle.getresponse().read()
            drain = http.client.HTTPConnection("127.0.0.1", port,
                                               timeout=30)
            drain.request("POST", "/drain", body=b"{}")
            assert json.loads(drain.getresponse().read())["drained"]
            drain.close()
            _, err = proc.communicate(timeout=30)
            idle.close()
        finally:
            if proc.poll() is None:
                proc.kill()
                proc.communicate()
        assert proc.returncode == 0
        assert "Traceback" not in err, err
        assert "Exception in callback" not in err, err

    def test_bad_budget_is_400(self):
        async def body():
            service, url = await _start(workers=1)
            try:
                for budget in ({"max_steps": "3"}, {"max_seconds": "2"}):
                    doc = _task_doc()
                    doc["task"].update(budget)
                    response = await request_once(url, "POST", "/v1/task",
                                                  doc)
                    assert response.status == 400, response.json()
                    assert "max_s" in response.json()["error"]
            finally:
                await service.stop()
        run(body())


# ----------------------------------------------------------------------
# the request path stays on the event loop
# ----------------------------------------------------------------------
class TestLoopDispatch:
    def test_request_path_takes_no_thread(self, tmp_path, monkeypatch):
        def no_thread(*args, **kwargs):
            raise AssertionError("the request path left the event loop")

        async def body():
            service, url = await _start(workers=1,
                                        cache_dir=str(tmp_path / "c"))
            try:
                await wait_healthy(url, timeout=5.0)
                monkeypatch.setattr(asyncio, "to_thread", no_thread)
                monkeypatch.setattr(asyncio.get_running_loop(),
                                    "run_in_executor", no_thread)
                cold = await request_once(url, "POST", "/v1/task",
                                          _task_doc())
                memory = await request_once(url, "POST", "/v1/task",
                                            _task_doc())
                service.cache.memory.clear()
                file = await request_once(url, "POST", "/v1/task",
                                          _task_doc())
                monkeypatch.undo()
                assert [r.status for r in (cold, memory, file)] \
                    == [200] * 3
                assert [r.json()["served"]["cache"]
                        for r in (cold, memory, file)] \
                    == ["miss", "hit", "hit"]
                counters = service.tracer.counters
                assert counters[CACHE_MEMORY_HITS] == 1
                assert counters[CACHE_FILE_HITS] == 1
            finally:
                monkeypatch.undo()
                await service.stop()
        run(body())

    def test_crash_while_a_request_waits_for_the_worker(self):
        async def body():
            service, url = await _start(workers=1)
            try:
                crash = asyncio.ensure_future(request_once(
                    url, "POST", "/v1/task",
                    {"task": {"generator": "crash", "seed": 0}},
                ))
                waiter = asyncio.ensure_future(request_once(
                    url, "POST", "/v1/task", _task_doc()
                ))
                crashed, served = await asyncio.gather(crash, waiter)
                assert crashed.status == 500
                assert crashed.json()["record"]["status"] == "crashed"
                assert served.status == 200
                assert service.tracer.counters["engine.crashes"] == 1
                # the replacement keeps serving
                again = await request_once(url, "POST", "/v1/task",
                                           _task_doc(seed=2))
                assert again.status == 200
            finally:
                await service.stop()
        run(body())

    def test_timeout_is_504_and_the_next_request_is_served(self):
        async def body():
            service, url = await _start(workers=1, task_timeout=0.3)
            try:
                doc = {"task": {"generator": "sleep", "seed": 0,
                                "params": {"seconds": 30.0}}}
                response = await request_once(url, "POST", "/v1/task", doc)
                assert response.status == 504
                assert response.json()["record"]["status"] == "timeout"
                response = await request_once(url, "POST", "/v1/task",
                                              _task_doc())
                assert response.status == 200
                assert response.json()["record"]["key"] == task_hash(
                    parse_task_request(_task_doc()).spec
                )
            finally:
                await service.stop()
        run(body())


# ----------------------------------------------------------------------
# load generator
# ----------------------------------------------------------------------
class TestClient:
    def test_percentile_nearest_rank(self):
        assert percentile([], 0.5) == 0.0
        values = [1.0, 2.0, 3.0, 4.0]
        assert percentile(values, 0.0) == 1.0
        assert percentile(values, 0.5) == 3.0
        assert percentile(values, 0.99) == 4.0

    def test_load_config_validation(self):
        with pytest.raises(ValueError):
            LoadConfig(mode="sideways")
        with pytest.raises(ValueError):
            LoadConfig(requests=0)
        with pytest.raises(ValueError):
            LoadConfig(concurrency=0)
        with pytest.raises(ValueError):
            LoadConfig(mode="open", rate=0)

    def test_task_document_seed_cycle(self):
        config = LoadConfig(requests=10, distinct_seeds=3, seed_base=100,
                            verify=True, deadline=1.5, cache_mode="bypass")
        seeds = [config.task_document(i)["task"]["seed"] for i in range(6)]
        assert seeds == [100, 101, 102, 100, 101, 102]
        document = config.task_document(0)
        assert document["verify"] is True
        assert document["deadline"] == 1.5
        assert document["cache"] == "bypass"

    def test_closed_loop_run_report(self, tmp_path):
        async def body():
            service, url = await _start(cache_dir=str(tmp_path / "c"))
            try:
                config = LoadConfig(
                    url=url, requests=8, concurrency=2,
                    generator="pressure", strategy="briggs", k=5,
                    params={"rounds": 4},
                )
                report = await run_load(config)
                assert report["completed"] == 8
                assert report["transport_errors"] == 0
                assert report["http_statuses"] == {"200": 8}
                assert report["record_statuses"] == {"ok": 8}
                assert report["cache_hits"] == 0
                assert report["latency_ms"]["p50"] <= \
                    report["latency_ms"]["max"]

                replay = await run_load(config)
                assert replay["cache_hits"] == 8
            finally:
                await service.stop()
        run(body())

    def test_open_loop_mode(self):
        async def body():
            service, url = await _start()
            try:
                config = LoadConfig(
                    url=url, requests=5, mode="open", rate=200.0,
                    generator="pressure", strategy="briggs", k=5,
                    params={"rounds": 4},
                )
                report = await run_load(config)
                assert report["completed"] == 5
                assert report["mode"] == "open"
                assert report["offered_rate_rps"] == 200.0
            finally:
                await service.stop()
        run(body())


# ----------------------------------------------------------------------
# atomic cache writes under the server's concurrency
# ----------------------------------------------------------------------
class TestServeCacheIntegrity:
    def test_no_temp_files_left_behind(self, tmp_path):
        cache = ResultCache(tmp_path)
        key = "ab" * 8
        cache.put(key, {"key": key, "status": "ok"})
        # a put appends to the log: no temp file, no shard directory
        assert sorted(p.name for p in tmp_path.iterdir()) == [
            "records.lock", "records.log"]
        assert cache.get(key)["status"] == "ok"


# ----------------------------------------------------------------------
# service memory tier
# ----------------------------------------------------------------------
def _task_document(seed, generator="pressure", strategy="briggs"):
    return {"task": {"generator": generator, "seed": seed, "k": 4,
                     "strategy": strategy, "params": {"rounds": 3}}}


class TestServiceMemoryTier:
    def test_second_pass_hits_memory_tier(self, tmp_path):
        async def body():
            service = Service(ServeConfig(
                port=0, workers=0,
                cache_dir=str(tmp_path), mem_entries=32,
            ))
            port = await service.start()
            url = f"http://127.0.0.1:{port}"
            try:
                first = (await request_once(
                    url, "POST", "/v1/task", _task_document(0))).json()
                assert first["served"]["cache"] == "miss"
                second = (await request_once(
                    url, "POST", "/v1/task", _task_document(0))).json()
                assert second["served"]["cache"] == "hit"
                counters = service.tracer.counters
                # the repeat was answered by the memory tier: the file
                # tier was never probed for it (write-through put the
                # record in memory on the first pass)
                assert counters[CACHE_MEMORY_HITS] == 1
                assert counters.get(CACHE_FILE_HITS, 0) == 0
                health = (await request_once(
                    url, "GET", "/healthz")).json()
                assert health["cache"]["tiers"] == ["memory", "file"]
                assert health["cache"]["memory_entries"] == 1
            finally:
                await service.stop()
        run(body())

    def test_cold_memory_tier_promotes_file_hit(self, tmp_path):
        async def body():
            # a restarted service finds the record on disk, serves it,
            # and promotes it so the next repeat is a memory hit
            spec = TaskSpec.from_dict(_task_document(3)["task"])
            warm = Service(ServeConfig(
                port=0, workers=0,
                cache_dir=str(tmp_path),
            ))
            port = await warm.start()
            url = f"http://127.0.0.1:{port}"
            try:
                await request_once(url, "POST", "/v1/task",
                                   _task_document(3))
            finally:
                await warm.stop()

            cold = Service(ServeConfig(
                port=0, workers=0,
                cache_dir=str(tmp_path),
            ))
            port = await cold.start()
            url = f"http://127.0.0.1:{port}"
            try:
                hit = (await request_once(
                    url, "POST", "/v1/task", _task_document(3))).json()
                assert hit["served"]["cache"] == "hit"
                counters = cold.tracer.counters
                assert counters[CACHE_FILE_HITS] == 1
                assert cold.cache.get_memory(task_hash(spec)) is not None
            finally:
                await cold.stop()
        run(body())


# ----------------------------------------------------------------------
# remote campaign dispatch
# ----------------------------------------------------------------------
def _serve_in_thread(config):
    """Run a service's event loop in a daemon thread; returns (url,
    thread).  The thread exits when the service is drained."""
    box = {}
    started = threading.Event()

    def runner():
        async def main():
            service = Service(config)
            box["port"] = await service.start()
            started.set()
            await service.serve_until_drained()
        asyncio.run(main())

    thread = threading.Thread(target=runner, daemon=True)
    thread.start()
    assert started.wait(TIMEOUT), "service failed to start"
    return f"http://127.0.0.1:{box['port']}", thread


class TestRemoteCampaign:
    def _campaign(self):
        tasks = [
            TaskSpec(generator="pressure", seed=seed, k=4,
                     strategy=strategy, params=(("rounds", 3),))
            for seed in range(4)
            for strategy in ("briggs", "brute")
        ]
        return Campaign(name="remote-e2e", tasks=tasks, workers=2,
                        retries=1, backoff=0.01)

    def test_remote_matches_local_result_hash(self, tmp_path):
        campaign = self._campaign()
        local = run_campaign(
            campaign, ResultCache(str(tmp_path / "local")), workers=0,
        )
        url, thread = _serve_in_thread(ServeConfig(
            port=0, workers=0,
            cache_dir=str(tmp_path / "remote"),
        ))
        try:
            first = run_campaign_remote(campaign, url, workers=2)
            second = run_campaign_remote(campaign, url, workers=2)
        finally:
            run(drain(url), timeout=10.0)
            thread.join(timeout=10.0)
        assert first["failed_tasks"] == []
        assert first["by_status"] == {"ok": len(campaign.tasks)}
        # byte-identical outcome to the in-process engine
        assert first["result_hash"] == local["result_hash"]
        # the replay is served entirely from the service's cache tiers
        assert second["cache_hits"] == len(campaign.tasks)
        assert second["served"] == {"hit": len(campaign.tasks)}
        assert second["result_hash"] == local["result_hash"]

    def test_unreachable_service_fails_tasks(self):
        campaign = self._campaign()
        campaign.retries = 0
        with pytest.raises(TimeoutError):
            run_campaign_remote(
                campaign, "http://127.0.0.1:9", workers=1, wait=0.2,
            )


# ----------------------------------------------------------------------
# fault injection on the served path
# ----------------------------------------------------------------------
def _fake_in_thread(answer):
    """Serve ``answer(request)`` — response bytes, or None to close the
    connection unanswered — on a loopback port from a daemon thread;
    returns (url, stop)."""
    box = {}
    started = threading.Event()

    async def handle(reader, writer):
        try:
            while True:
                request = await read_request(reader)
                reply = None if request is None else answer(request)
                if reply is None:
                    return
                writer.write(reply)
                await writer.drain()
        finally:
            writer.close()

    async def main():
        server = await asyncio.start_server(handle, "127.0.0.1", 0)
        box["port"] = server.sockets[0].getsockname()[1]
        box["loop"] = asyncio.get_running_loop()
        box["stop"] = asyncio.Event()
        started.set()
        async with server:
            await box["stop"].wait()

    thread = threading.Thread(target=lambda: asyncio.run(main()),
                              daemon=True)
    thread.start()
    assert started.wait(TIMEOUT), "fake server failed to start"

    def stop():
        box["loop"].call_soon_threadsafe(box["stop"].set)
        thread.join(TIMEOUT)

    return f"http://127.0.0.1:{box['port']}", stop


def _computed(request):
    """A well-formed ``/v1/task`` reply computed in-process."""
    record = run_task(TaskSpec.from_dict(request.json()["task"]))
    return json_response(200, {"record": record,
                               "served": {"cache": "miss"}})


class TestServedFaults:
    def test_truncated_file_entry_is_recomputed(self, tmp_path):
        async def body():
            service = Service(ServeConfig(
                port=0, workers=0, cache_dir=str(tmp_path), mem_entries=1,
            ))
            url = f"http://127.0.0.1:{await service.start()}"
            try:
                document = _task_document(0)
                key = task_hash(TaskSpec.from_dict(document["task"]))
                first = (await request_once(
                    url, "POST", "/v1/task", document)).json()
                # a second key pushes the first out of the memory tier
                await request_once(url, "POST", "/v1/task",
                                   _task_document(1))
                assert key not in service.cache.memory
                # tear the first key's line in place, keeping the
                # second key's line after it
                log = service.cache.file.log_path
                data = log.read_bytes()
                start = data.index(f"\n{key}\t".encode())
                end = data.index(b"\n", start + 1)
                log.write_bytes(data[:start + 40] + data[end:])

                response = await request_once(
                    url, "POST", "/v1/task", document)
                assert response.status == 200
                again = response.json()
                assert again["served"]["cache"] == "miss"
                assert again["record"]["result_hash"] == (
                    first["record"]["result_hash"])
                rewritten = ResultCache(str(tmp_path)).get(key)
                assert rewritten["result_hash"] == (
                    first["record"]["result_hash"])
            finally:
                await service.stop()
        run(body())

    def test_non_json_reply_fails_only_its_task(self):
        tasks = [TaskSpec(generator="pressure", seed=seed, k=4,
                          strategy="briggs", params=(("rounds", 3),))
                 for seed in range(4)]
        bad = task_hash(tasks[1])

        def answer(request):
            if request.path == "/healthz":
                return json_response(200, {"status": "ok"})
            if task_hash(TaskSpec.from_dict(request.json()["task"])) == bad:
                return render_response(502, b"<html>bad gateway</html>",
                                       content_type="text/html")
            return _computed(request)

        url, stop = _fake_in_thread(answer)
        try:
            summary = run_campaign_remote(
                Campaign(name="html", tasks=tasks, workers=2, retries=0),
                url,
            )
        finally:
            stop()
        assert summary["by_status"] == {"error": 1, "ok": 3}
        assert summary["failed_tasks"] == [bad]

    def test_client_drain_cut_off_exits_2(self, capsys):
        from repro.cli import main

        def answer(request):
            if request.path == "/healthz":
                return json_response(200, {"status": "ok"})
            if request.path == "/drain":
                return None
            return _computed(request)

        url, stop = _fake_in_thread(answer)
        try:
            code = main(["client", "--url", url, "--requests", "2",
                         "--concurrency", "1", "--strategy", "briggs",
                         "--k", "4", "--drain"])
        finally:
            stop()
        assert code == 2
        assert capsys.readouterr().err.startswith("error: ")
