"""Minimal HTTP/1.1 codec over :mod:`asyncio` streams (stdlib only).

The serving layer deliberately avoids third-party HTTP stacks: the
protocol surface it needs is tiny (JSON request in, JSON response out,
keep-alive, a handful of status codes), and a ~200-line codec keeps the
whole service dependency-free and auditable.  Both directions are
implemented — :func:`read_request` / :func:`render_response` for the
server, :func:`render_request` / :func:`read_response` for the load
generator — so client and server are exercised against the *same*
parser in the tests.

Limits are explicit and small: request line and headers are capped at
:data:`MAX_HEADER_BYTES`, bodies at ``max_body`` (the caller's knob;
:data:`DEFAULT_MAX_BODY` by default).  ``Transfer-Encoding: chunked``
is not implemented and is rejected with 501 — every client this
service speaks to sends ``Content-Length``.

:class:`HttpServer` is the one server loop over the codec: the
keep-alive read → route → write cycle, the listener lifecycle and the
404/405/500 mapping, driven by a ``{(method, path): handler}`` table.
The shard service and the router each supply only their table.
"""

from __future__ import annotations

import asyncio
import json
import time
from dataclasses import dataclass
from typing import (
    Any, Awaitable, Callable, Dict, Mapping, Optional, Tuple,
)

from ..obs import Tracer, to_prometheus

__all__ = [
    "HttpServer",
    "HttpError",
    "Request",
    "Response",
    "read_request",
    "read_response",
    "render_response",
    "render_request",
    "json_response",
    "STATUS_REASONS",
    "MAX_HEADER_BYTES",
    "DEFAULT_MAX_BODY",
]

#: Upper bound on the request line plus all headers, in bytes.
MAX_HEADER_BYTES = 16 * 1024

#: Default upper bound on a request body, in bytes.
DEFAULT_MAX_BODY = 4 * 1024 * 1024

#: Reason phrases for every status the service emits.
STATUS_REASONS = {
    200: "OK",
    400: "Bad Request",
    404: "Not Found",
    405: "Method Not Allowed",
    408: "Request Timeout",
    413: "Payload Too Large",
    429: "Too Many Requests",
    500: "Internal Server Error",
    501: "Not Implemented",
    503: "Service Unavailable",
    504: "Gateway Timeout",
}


class HttpError(Exception):
    """A malformed or over-limit message; carries the response status."""

    def __init__(self, status: int, message: str) -> None:
        super().__init__(message)
        self.status = status


class _JsonBody:
    """The JSON decoding shared by requests and responses."""

    body: bytes

    def json(self) -> Any:
        """The body decoded as JSON (:class:`HttpError` 400 on failure)."""
        if not self.body:
            return None
        try:
            return json.loads(self.body)
        except ValueError as exc:
            raise HttpError(400, f"invalid JSON body: {exc}") from exc


@dataclass
class Request(_JsonBody):
    """One parsed HTTP request."""

    method: str
    path: str
    query: str
    headers: Dict[str, str]
    body: bytes

    @property
    def keep_alive(self) -> bool:
        """Whether the connection should stay open after the response."""
        return self.headers.get("connection", "").lower() != "close"


@dataclass
class Response(_JsonBody):
    """One parsed HTTP response (the client side of the codec)."""

    status: int
    headers: Dict[str, str]
    body: bytes


async def _read_head(
    reader: asyncio.StreamReader,
) -> Optional[Tuple[str, Dict[str, str]]]:
    """Read start-line + headers; None on clean EOF before any bytes."""
    try:
        head = await reader.readuntil(b"\r\n\r\n")
    except asyncio.IncompleteReadError as exc:
        if not exc.partial:
            return None  # clean close between messages
        raise HttpError(400, "connection closed mid-headers") from exc
    except asyncio.LimitOverrunError as exc:
        raise HttpError(413, "headers exceed limit") from exc
    if len(head) > MAX_HEADER_BYTES:
        raise HttpError(413, "headers exceed limit")
    lines = head.decode("latin-1").split("\r\n")
    start_line = lines[0]
    headers: Dict[str, str] = {}
    for line in lines[1:]:
        if not line:
            continue
        name, sep, value = line.partition(":")
        if not sep:
            raise HttpError(400, f"malformed header line: {line!r}")
        headers[name.strip().lower()] = value.strip()
    return start_line, headers


async def _read_body(
    reader: asyncio.StreamReader,
    headers: Mapping[str, str],
    max_body: int,
) -> bytes:
    """Read a Content-Length body (chunked is rejected with 501)."""
    if "chunked" in headers.get("transfer-encoding", "").lower():
        raise HttpError(501, "chunked transfer encoding not supported")
    raw_length = headers.get("content-length", "0")
    try:
        length = int(raw_length)
    except ValueError as exc:
        raise HttpError(400, f"bad Content-Length: {raw_length!r}") from exc
    if length < 0:
        raise HttpError(400, f"bad Content-Length: {raw_length!r}")
    if length > max_body:
        raise HttpError(413, f"body of {length} bytes exceeds limit")
    if length == 0:
        return b""
    try:
        return await reader.readexactly(length)
    except asyncio.IncompleteReadError as exc:
        raise HttpError(400, "connection closed mid-body") from exc


async def read_request(
    reader: asyncio.StreamReader,
    max_body: int = DEFAULT_MAX_BODY,
) -> Optional[Request]:
    """Parse one request; None on clean connection close.

    Raises :class:`HttpError` on malformed or over-limit input — the
    server turns that into the error's status code and closes the
    connection.
    """
    head = await _read_head(reader)
    if head is None:
        return None
    start_line, headers = head
    parts = start_line.split(" ")
    if len(parts) != 3 or not parts[2].startswith("HTTP/1."):
        raise HttpError(400, f"malformed request line: {start_line!r}")
    method, target, _version = parts
    path, _, query = target.partition("?")
    body = await _read_body(reader, headers, max_body)
    return Request(
        method=method.upper(), path=path, query=query,
        headers=headers, body=body,
    )


async def read_response(
    reader: asyncio.StreamReader,
    max_body: int = DEFAULT_MAX_BODY,
) -> Optional[Response]:
    """Parse one response (the client side); None on clean close."""
    head = await _read_head(reader)
    if head is None:
        return None
    status_line, headers = head
    parts = status_line.split(" ", 2)
    if len(parts) < 2 or not parts[0].startswith("HTTP/1."):
        raise HttpError(400, f"malformed status line: {status_line!r}")
    try:
        status = int(parts[1])
    except ValueError as exc:
        raise HttpError(400, f"bad status code: {parts[1]!r}") from exc
    body = await _read_body(reader, headers, max_body)
    return Response(status=status, headers=headers, body=body)


def render_response(
    status: int,
    body: bytes,
    content_type: str = "application/json",
    keep_alive: bool = True,
    extra_headers: Optional[Mapping[str, str]] = None,
) -> bytes:
    """Serialize one response message to wire bytes."""
    reason = STATUS_REASONS.get(status, "Unknown")
    lines = [
        f"HTTP/1.1 {status} {reason}",
        f"Content-Type: {content_type}",
        f"Content-Length: {len(body)}",
        f"Connection: {'keep-alive' if keep_alive else 'close'}",
    ]
    for name, value in (extra_headers or {}).items():
        lines.append(f"{name}: {value}")
    head = "\r\n".join(lines) + "\r\n\r\n"
    return head.encode("latin-1") + body


def render_request(
    method: str,
    path: str,
    body: bytes = b"",
    host: str = "localhost",
    content_type: str = "application/json",
    keep_alive: bool = True,
) -> bytes:
    """Serialize one request message to wire bytes."""
    lines = [
        f"{method.upper()} {path} HTTP/1.1",
        f"Host: {host}",
        f"Content-Length: {len(body)}",
        f"Connection: {'keep-alive' if keep_alive else 'close'}",
    ]
    if body:
        lines.insert(2, f"Content-Type: {content_type}")
    head = "\r\n".join(lines) + "\r\n\r\n"
    return head.encode("latin-1") + body


def json_response(
    status: int,
    payload: Any,
    keep_alive: bool = True,
) -> bytes:
    """Render a JSON payload as a complete response message."""
    body = json.dumps(payload, sort_keys=True).encode()
    return render_response(status, body, keep_alive=keep_alive)


#: An endpoint: the parsed request in, a complete response message out.
Handler = Callable[[Request], Awaitable[bytes]]


class HttpServer:
    """One keep-alive HTTP listener: the connection loop and lifecycle.

    ``routes`` maps ``(method, path)`` to a :data:`Handler`.  Each
    connection is read request by request until the client closes it
    or sends ``Connection: close``; a known path under another method
    answers 405, an unknown path 404, a handler's :class:`HttpError`
    its status, and any other handler exception 500 (counted as
    ``{counter_prefix}.errors``; every parsed request counts as
    ``{counter_prefix}.http_requests``).  :meth:`serve_until_drained`
    returns once a handler sets ``_drain_done`` and the listener and
    :meth:`_close`'s resources are shut.
    """

    def __init__(
        self,
        host: str,
        port: int,
        max_body: int,
        tracer: Tracer,
        routes: Mapping[Tuple[str, str], Handler],
        counter_prefix: str,
    ) -> None:
        self.tracer = tracer
        self.port: Optional[int] = None
        self._bind = (host, port)
        self._max_body = max_body
        self._routes = dict(routes)
        self._paths = {path for _, path in self._routes}
        self._counter_prefix = counter_prefix
        self._server: Optional[asyncio.AbstractServer] = None
        self._started_at = time.monotonic()
        self._drain_done = asyncio.Event()
        #: every open connection's handler task, with its writer while
        #: it waits for the next request and ``None`` while it serves one
        self._connections: Dict[
            "asyncio.Task[None]", Optional[asyncio.StreamWriter]] = {}

    async def start(self) -> int:
        """Bind and start accepting; returns the actual port (ephemeral
        ports resolve here)."""
        self._server = await asyncio.start_server(
            self._handle_connection, *self._bind
        )
        self._started_at = time.monotonic()
        self.port = self._server.sockets[0].getsockname()[1]
        return self.port

    async def wait_drained(self) -> None:
        """Resolve after a ``/drain`` has finished all in-flight work."""
        await self._drain_done.wait()

    async def stop(self) -> None:
        """Close the listener and every idle keep-alive connection,
        then :meth:`_close` (idempotent).

        An idle connection's handler sees a clean end of stream and
        returns, so no handler is left for the loop's shutdown to
        cancel (which logs a ``CancelledError`` traceback).
        """
        if self._server is not None:
            self._server.close()
            idle = {task: writer for task, writer
                    in self._connections.items() if writer is not None}
            for writer in idle.values():
                writer.close()
            if idle:
                await asyncio.wait(list(idle), timeout=5.0)
            await self._server.wait_closed()
            self._server = None
        await self._close()

    async def _close(self) -> None:
        """Release what the subclass holds behind the listener."""

    async def serve_until_drained(self) -> None:
        """Run until a client drains the server (the CLI entry point)."""
        if self._server is None:
            await self.start()
        try:
            await self.wait_drained()
            # let final responses flush before tearing the listener down
            await asyncio.sleep(0.05)
        finally:
            await self.stop()

    def _metrics_response(
        self, request: Request, gauges: Dict[str, float]
    ) -> bytes:
        """``GET /metrics``: the tracer plus ``gauges`` and the uptime,
        as Prometheus text."""
        gauges[f"{self._counter_prefix}_uptime_seconds"] = (
            time.monotonic() - self._started_at
        )
        body = to_prometheus(self.tracer, gauges=gauges).encode()
        return render_response(
            200, body,
            content_type="text/plain; version=0.0.4; charset=utf-8",
            keep_alive=request.keep_alive,
        )

    async def _handle_connection(
        self,
        reader: asyncio.StreamReader,
        writer: asyncio.StreamWriter,
    ) -> None:
        """Serve one keep-alive connection until close or error."""
        task = asyncio.current_task()
        assert task is not None
        try:
            while True:
                self._connections[task] = writer
                try:
                    request = await read_request(
                        reader, max_body=self._max_body
                    )
                except HttpError as exc:
                    writer.write(json_response(
                        exc.status, {"error": str(exc)}, keep_alive=False,
                    ))
                    await writer.drain()
                    return
                if request is None:
                    return
                self._connections[task] = None
                self.tracer.count(f"{self._counter_prefix}.http_requests")
                writer.write(await self._route(request))
                await writer.drain()
                if not request.keep_alive:
                    return
        except (ConnectionResetError, BrokenPipeError):
            pass
        finally:
            del self._connections[task]
            writer.close()
            try:
                await writer.wait_closed()
            except OSError:
                pass

    async def _route(self, request: Request) -> bytes:
        """Dispatch one parsed request to its handler."""
        keep = request.keep_alive
        handler = self._routes.get((request.method, request.path))
        if handler is None:
            if request.path in self._paths:
                return json_response(
                    405, {"error": f"method {request.method} not allowed "
                                   f"on {request.path}"},
                    keep_alive=keep,
                )
            return json_response(
                404, {"error": f"unknown path {request.path}"},
                keep_alive=keep,
            )
        try:
            return await handler(request)
        except HttpError as exc:
            return json_response(
                exc.status, {"error": str(exc)}, keep_alive=keep
            )
        except Exception as exc:  # a handler bug must not kill the server
            self.tracer.count(f"{self._counter_prefix}.errors")
            return json_response(
                500, {"error": f"internal error: {exc}"}, keep_alive=keep
            )
