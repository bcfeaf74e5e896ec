"""The ``serve-cold`` and ``serve-hot`` workloads.

Both start ``python -m repro serve --port 0`` as a subprocess with a
fresh cache directory and drive it with a closed loop of two keep-alive
connections, standing in for ``campaign run --remote``'s dispatchers.
The loop sends :data:`CHUNK_TASKS` requests at a time, so the
host-speed kernel can run between chunks with no request in flight.
The client speaks HTTP/1.1 itself, so the instrument shares no code
with the serving stack it measures.
"""

from __future__ import annotations

import asyncio
import http.client
import json
import os
import re
import signal
import subprocess
import sys
import tempfile
import time
from pathlib import Path
from typing import Callable, Dict, Iterator, List, Optional, Sequence, Tuple

from tasklist import ROOT, Task, Tally, check_record, pass_orders

#: Keep-alive connections of the closed loop.
CONNECTIONS = 2

#: Pool workers of the service (the CLI default, stated for the record).
WORKERS = 2

#: Requests sent between two quiet gaps of the closed loop.
CHUNK_TASKS = 16

_LISTEN_RE = re.compile(r"http://[^:/\s]+:(\d+)")


class Server:
    """One ``repro serve`` subprocess on an ephemeral port.

    The service runs in its own session, so :meth:`stop` can end it and
    its pool workers as one process group.
    """

    def __init__(self, workdir: Path, extra_args: Sequence[str] = ()) -> None:
        self.cache_dir = Path(tempfile.mkdtemp(dir=workdir, prefix="cache-"))
        self._log = open(self.cache_dir.with_suffix(".log"), "w")
        env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
        self.proc = subprocess.Popen(
            [sys.executable, "-m", "repro", "serve", "--port", "0",
             "--workers", str(WORKERS), "--cache-dir", str(self.cache_dir),
             *extra_args],
            cwd=ROOT, env=env, stdout=subprocess.PIPE, stderr=self._log,
            start_new_session=True, text=True,
        )
        try:
            line = self.proc.stdout.readline()
            match = _LISTEN_RE.search(line)
            if match is None:
                raise RuntimeError(f"repro serve did not start: {line!r}")
            self.port = int(match.group(1))
            self._wait_healthy(timeout=30.0)
        except BaseException:
            self.stop()
            raise

    def request(self, method: str, path: str,
                timeout: float = 60.0) -> Tuple[int, bytes]:
        conn = http.client.HTTPConnection("127.0.0.1", self.port,
                                          timeout=timeout)
        try:
            conn.request(method, path)
            response = conn.getresponse()
            return response.status, response.read()
        finally:
            conn.close()

    def _wait_healthy(self, timeout: float) -> None:
        deadline = time.monotonic() + timeout
        while True:
            try:
                if self.request("GET", "/healthz", timeout=5.0)[0] == 200:
                    return
            except OSError:
                pass
            if time.monotonic() > deadline or self.proc.poll() is not None:
                raise RuntimeError("repro serve never became healthy")
            time.sleep(0.02)

    def counters(self) -> Dict[str, float]:
        """The unlabelled samples of ``/metrics``."""
        status, body = self.request("GET", "/metrics")
        if status != 200:
            raise RuntimeError(f"/metrics returned {status}")
        out = {}
        for line in body.decode().splitlines():
            if line and not line.startswith("#") and "{" not in line:
                name, _, value = line.partition(" ")
                out[name] = float(value)
        return out

    def peak_rss_mb(self) -> float:
        """Summed peak RSS (VmHWM) of the service and its pool workers."""
        total_kb = 0
        pending = [self.proc.pid]
        while pending:
            pid = pending.pop()
            try:
                status = Path(f"/proc/{pid}/status").read_text()
                children = Path(f"/proc/{pid}/task/{pid}/children").read_text()
            except OSError:
                continue
            total_kb += int(re.search(r"VmHWM:\s+(\d+)", status).group(1))
            pending += [int(c) for c in children.split()]
        return total_kb / 1024

    def stop(self) -> None:
        """Drain, then make sure every process of the group has ended."""
        if self.proc.poll() is None:
            try:
                self.request("POST", "/drain", timeout=60.0)
                self.proc.wait(timeout=30.0)
            except (OSError, subprocess.TimeoutExpired):
                pass
        _kill_group(self.proc.pid)
        self.proc.wait()
        self.proc.stdout.close()
        self._log.close()


def _kill_group(pgid: int) -> None:
    """SIGKILL what is left of a process group and wait until it is gone."""
    try:
        os.killpg(pgid, signal.SIGKILL)
    except ProcessLookupError:
        return
    deadline = time.monotonic() + 10.0
    while time.monotonic() < deadline:
        try:
            os.killpg(pgid, 0)
        except ProcessLookupError:
            return
        time.sleep(0.01)


async def _exchange(reader: asyncio.StreamReader,
                    writer: asyncio.StreamWriter,
                    body: bytes) -> Tuple[int, bytes]:
    """One ``POST /v1/task`` on a keep-alive connection."""
    writer.write(
        b"POST /v1/task HTTP/1.1\r\nHost: 127.0.0.1\r\n"
        b"Content-Type: application/json\r\n"
        b"Content-Length: %d\r\n\r\n" % len(body) + body
    )
    await writer.drain()
    head = await reader.readuntil(b"\r\n\r\n")
    lines = head.split(b"\r\n")
    status = int(lines[0].split()[1])
    length = 0
    for line in lines[1:]:
        name, _, value = line.partition(b":")
        if name.strip().lower() == b"content-length":
            length = int(value)
    return status, await reader.readexactly(length)


Handler = Callable[[Task, Optional[int], Optional[dict], float], None]


async def _closed_loop(port: int, chunks: Iterator[List[Tuple[Task, int]]],
                       handle: Handler, between: Callable[[], None]) -> None:
    """``CONNECTIONS`` clients, each sending its next request on reply.

    The clients share each chunk of requests and keep their connections
    across chunks; ``between`` runs after a chunk, when no request is in
    flight.
    """
    connections: List[list] = [[None, None] for _ in range(CONNECTIONS)]

    async def client(connection: list,
                     work: Iterator[Tuple[Task, int]]) -> None:
        for task, seed in work:
            if connection[1] is None:
                connection[:] = await asyncio.open_connection("127.0.0.1",
                                                              port)
            reader, writer = connection
            body = json.dumps(task.document(seed)).encode()
            start = time.perf_counter()
            try:
                status, raw = await _exchange(reader, writer, body)
                document = json.loads(raw)
            except (OSError, ValueError, asyncio.IncompleteReadError):
                handle(task, None, None, time.perf_counter() - start)
                writer.close()
                connection[:] = [None, None]
                continue
            handle(task, status, document, time.perf_counter() - start)

    try:
        for work in chunks:
            shared = iter(work)
            await asyncio.gather(*(client(c, shared) for c in connections))
            between()
    finally:
        for _, writer in connections:
            if writer is not None:
                writer.close()


def drive(port: int, tasks: Sequence[Task], seconds: float, order_seed: int,
          task_seed: Callable[[int], int], handle: Handler,
          between: Callable[[], None] = lambda: None) -> float:
    """Send whole seeded passes until ``seconds`` have gone; wall time.

    ``task_seed(p)`` is the spec seed of pass ``p``; ``between`` runs
    after every :data:`CHUNK_TASKS` requests.
    """
    t0 = time.perf_counter()

    def chunks() -> Iterator[List[Tuple[Task, int]]]:
        for number, order in enumerate(pass_orders(tasks, order_seed)):
            work = [(task, task_seed(number)) for task in order]
            for start in range(0, len(work), CHUNK_TASKS):
                yield work[start:start + CHUNK_TASKS]
            if time.perf_counter() - t0 >= seconds:
                return

    asyncio.run(_closed_loop(port, chunks(), handle, between))
    return time.perf_counter() - t0


class Responses:
    """Checks every response and keeps what the traced run needs."""

    def __init__(self, tally: Tally, reference: Dict[Tuple, str]) -> None:
        self.tally = tally
        self.reference = reference
        self.compute_s: List[float] = []
        self.dispatch_s: List[float] = []
        self.http_s: List[float] = []

    def __call__(self, task: Task, status: Optional[int],
                 document: Optional[dict], seconds: float) -> None:
        record = (document or {}).get("record") or {}
        if status is None:
            failure: Optional[str] = "transport error"
        elif status != 200:
            failure = f"http {status}"
        else:
            failure = check_record(task, record, self.reference)
        self.tally.note(task, seconds, failure, record.get("payload"))
        served = (document or {}).get("served")
        if not served:
            return
        queued = served.get("queue_seconds", 0.0)
        self.http_s.append(seconds - queued)
        if served.get("cache") != "hit":
            self.compute_s.append(record.get("seconds", 0.0))
            self.dispatch_s.append(queued - record.get("seconds", 0.0))
