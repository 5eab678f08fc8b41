"""Shared HTTP/1.1 transport and request pipeline for the serve tier.

One module owns the wire plumbing both the single-process server
(:mod:`repro.serve.server`) and the fleet router
(:mod:`repro.serve.router`) speak, so parsing limits, error semantics
and response framing cannot drift between the two hops:

* **request pipeline** -- :class:`HttpService`, the one connection
  handler both apps run: read the head within
  :data:`REQUEST_READ_TIMEOUT` (typed 408/400 otherwise), honour or
  generate the ``X-Request-Id``, open the app's root span, look the
  request up in the app's :class:`Route` table (typed 404, or 405 with
  ``Allow``), send a :class:`~repro.serve.protocol.ProtocolError` a
  handler raises as its typed envelope, answer anything else with a
  last-resort 500, then hand ``(route, status, elapsed)`` to the app's
  ``_finish_request`` for metrics and the access log;
* **server side** -- :func:`read_request` (bounded request parsing that
  raises :class:`HttpError`, never buffers unboundedly) and
  :func:`send_response` / :func:`send_json` / :func:`send_error`
  (``Connection: close`` framing that echoes the context-bound
  ``X-Request-Id`` on every response);
* **client side** -- :func:`fetch` (one buffered request/response round
  trip over asyncio streams) and :func:`open_fetch` (a streaming
  response handle for proxying NDJSON line by line), which is how the
  router forwards work to its backends without growing a dependency on
  a real HTTP client library.

Everything is one-request-per-connection: the serve tier deliberately
speaks ``Connection: close`` so EOF-delimited NDJSON streaming is
trivially correct and a dead backend is indistinguishable from a
finished response only *after* the terminal line -- which is exactly the
signal the router's retry path keys on.
"""

from __future__ import annotations

import asyncio
import json
import time
from dataclasses import dataclass, field
from typing import AsyncIterator, Awaitable, Callable, Mapping, Sequence

from repro.obs import context as _ctx
from repro.obs.state import STATE as _OBS
from repro.obs.tracing import Tracer
from repro.serve import protocol as proto
from repro.serve.lifecycle import Service
from repro.sim.export import nan_to_none

__all__ = [
    "MAX_REQUEST_LINE",
    "MAX_HEADER_COUNT",
    "MAX_HEADER_LINE",
    "MAX_BODY_BYTES",
    "REQUEST_READ_TIMEOUT",
    "REASONS",
    "HttpError",
    "HttpRequest",
    "ClientGone",
    "RequestScope",
    "Route",
    "HttpService",
    "read_request",
    "send_response",
    "send_json",
    "send_error",
    "json_payload",
    "ndjson_head",
    "fetch",
    "open_fetch",
    "StreamingResponse",
]

#: HTTP parsing limits: past any of them the request is rejected, never
#: buffered unboundedly.
MAX_REQUEST_LINE = 8 * 1024
MAX_HEADER_COUNT = 100
MAX_HEADER_LINE = 8 * 1024
MAX_BODY_BYTES = 1024 * 1024

#: A client must deliver its whole request within this window; an idle
#: half-open connection can otherwise pin the drain sequence forever.
REQUEST_READ_TIMEOUT = 30.0

REASONS = {
    200: "OK",
    202: "Accepted",
    400: "Bad Request",
    404: "Not Found",
    405: "Method Not Allowed",
    408: "Request Timeout",
    413: "Payload Too Large",
    429: "Too Many Requests",
    500: "Internal Server Error",
    502: "Bad Gateway",
    503: "Service Unavailable",
}


class HttpError(Exception):
    """Transport-level malformation (before the JSON protocol layer)."""

    def __init__(self, status: int, message: str) -> None:
        super().__init__(message)
        self.status = status


class ClientGone(Exception):
    """The *client* connection failed mid-response.

    Raised (instead of ``ConnectionError``) where a handler must tell a
    client hanging up apart from a failing backend hop, which would
    wrongly eject a healthy backend; the pipeline treats it like any
    other client disconnect.
    """


@dataclass
class HttpRequest:
    method: str
    path: str
    headers: dict[str, str]
    body: bytes


@dataclass
class RequestScope:
    """Per-request observability state threaded through dispatch.

    ``tracer``/``root_span_id`` anchor the request's span tree;
    ``access`` accumulates the fields the app's access log reports
    after the response is sent.
    """

    request_id: str
    tracer: Tracer | None = None
    root_span_id: int | None = None
    access: dict = field(default_factory=dict)


Handler = Callable[
    [HttpRequest, asyncio.StreamWriter, RequestScope], Awaitable[int]
]


@dataclass(frozen=True)
class Route:
    """One route-table entry; ``path`` ending in ``/`` matches a prefix.

    ``label`` names the route in metrics and logs; ``handler`` writes
    the response and returns its status.
    """

    label: str
    method: str
    path: str
    handler: Handler

    def matches(self, path: str) -> bool:
        if self.path.endswith("/"):
            return path.startswith(self.path)
        return path == self.path


# ----------------------------------------------------------------------
# Server side


async def read_request(reader: asyncio.StreamReader) -> HttpRequest:
    """Parse one bounded HTTP/1.1 request; raises :class:`HttpError`."""
    try:
        line = await reader.readuntil(b"\r\n")
    except asyncio.LimitOverrunError:
        raise HttpError(400, "request line too long")
    except asyncio.IncompleteReadError:
        raise HttpError(400, "empty request")
    if len(line) > MAX_REQUEST_LINE:
        raise HttpError(400, "request line too long")
    parts = line.decode("latin-1").rstrip("\r\n").split(" ")
    if len(parts) != 3 or not parts[2].startswith("HTTP/1."):
        raise HttpError(400, "malformed request line")
    method, target, _version = parts
    headers: dict[str, str] = {}
    for _ in range(MAX_HEADER_COUNT + 1):
        try:
            raw = await reader.readuntil(b"\r\n")
        except (asyncio.LimitOverrunError, asyncio.IncompleteReadError):
            raise HttpError(400, "malformed headers")
        if raw == b"\r\n":
            break
        if len(raw) > MAX_HEADER_LINE:
            raise HttpError(400, "header line too long")
        name, sep, value = raw.decode("latin-1").partition(":")
        if not sep:
            raise HttpError(400, "malformed header line")
        headers[name.strip().lower()] = value.strip()
    else:
        raise HttpError(400, "too many headers")
    body = b""
    if "content-length" in headers:
        try:
            length = int(headers["content-length"])
        except ValueError:
            raise HttpError(400, "malformed Content-Length")
        if length < 0:
            raise HttpError(400, "malformed Content-Length")
        if length > MAX_BODY_BYTES:
            raise HttpError(413, "request body too large")
        try:
            body = await reader.readexactly(length)
        except asyncio.IncompleteReadError:
            raise HttpError(400, "truncated request body")
    elif headers.get("transfer-encoding"):
        raise HttpError(400, "chunked request bodies are not supported")
    return HttpRequest(
        method=method,
        path=target.split("?", 1)[0],
        headers=headers,
        body=body,
    )


async def _read_request_in_time(reader: asyncio.StreamReader) -> HttpRequest:
    try:
        return await asyncio.wait_for(
            read_request(reader), timeout=REQUEST_READ_TIMEOUT
        )
    except asyncio.TimeoutError:
        raise HttpError(408, "timed out waiting for the request") from None


async def send_response(
    writer: asyncio.StreamWriter,
    status: int,
    content_type: str,
    payload: bytes,
    extra_headers: Sequence[tuple[str, str]] = (),
) -> None:
    """Write one buffered response (``Connection: close`` framing).

    Every response echoes the request id bound to the current context --
    success, error envelope or last-resort 500 alike (the header
    contract shared by server and router).
    """
    reason = REASONS.get(status, "Unknown")
    head = [f"HTTP/1.1 {status} {reason}"]
    head.append(f"Content-Type: {content_type}")
    head.append(f"Content-Length: {len(payload)}")
    rid = _ctx.current_request_id()
    if rid is not None:
        head.append(f"{proto.REQUEST_ID_HEADER}: {rid}")
    for name, value in extra_headers:
        head.append(f"{name}: {value}")
    head.append("Connection: close")
    writer.write(("\r\n".join(head) + "\r\n\r\n").encode("latin-1"))
    writer.write(payload)
    await writer.drain()


def json_payload(doc: Mapping[str, object]) -> bytes:
    """RFC-8259-clean JSON body bytes (NaN scrubbed, trailing newline)."""
    return (
        json.dumps(
            nan_to_none(dict(doc)), allow_nan=False, separators=(",", ":")
        ).encode("utf-8")
        + b"\n"
    )


async def send_json(
    writer: asyncio.StreamWriter,
    status: int,
    doc: Mapping[str, object],
    extra_headers: Sequence[tuple[str, str]] = (),
) -> None:
    await send_response(
        writer, status, "application/json", json_payload(doc), extra_headers
    )


async def send_error(
    writer: asyncio.StreamWriter,
    exc: proto.ProtocolError,
    extra_headers: Sequence[tuple[str, str]] = (),
) -> int:
    """Send ``exc`` as its typed envelope (+ ``Retry-After`` when it
    carries a hint); returns the status."""
    headers = list(extra_headers)
    if exc.retry_after_s is not None:
        headers.append(("Retry-After", str(max(1, round(exc.retry_after_s)))))
    await send_json(
        writer,
        exc.status,
        proto.error_envelope(exc, request_id=_ctx.current_request_id()),
        headers,
    )
    return exc.status


def ndjson_head(request_id: str) -> bytes:
    """Status line and headers of an EOF-delimited NDJSON stream."""
    return (
        "HTTP/1.1 200 OK\r\n"
        "Content-Type: application/x-ndjson\r\n"
        "Cache-Control: no-store\r\n"
        f"{proto.REQUEST_ID_HEADER}: {request_id}\r\n"
        "Connection: close\r\n\r\n"
    ).encode("latin-1")


# ----------------------------------------------------------------------
# The request pipeline


class HttpService(Service):
    """One request per connection through the shared pipeline.

    Subclasses fill :attr:`routes`, name their root span in
    :attr:`span_name` and implement :meth:`_finish_request`.
    """

    #: Name of the root span every request opens.
    span_name: str

    def __init__(self, config) -> None:
        super().__init__(config)
        self.routes: list[Route] = []

    def _finish_request(
        self,
        scope: RequestScope,
        request: HttpRequest | None,
        route: str,
        status: int,
        elapsed: float,
    ) -> None:
        """Per-request bookkeeping after the response went out (not
        called when the client went away first)."""

    async def _send_error(
        self, writer: asyncio.StreamWriter, exc: proto.ProtocolError
    ) -> int:
        return await send_error(writer, exc)

    async def _handle_metrics(
        self,
        request: HttpRequest,
        writer: asyncio.StreamWriter,
        scope: RequestScope,
    ) -> int:
        await send_response(
            writer,
            200,
            "text/plain; version=0.0.4; charset=utf-8",
            _OBS.registry.to_prometheus().encode("utf-8"),
        )
        return 200

    async def _handle_connection(
        self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ) -> None:
        t0 = time.perf_counter()
        route = "unmatched"
        status = 500
        request: HttpRequest | None = None
        scope = RequestScope(request_id=_ctx.new_request_id())
        try:
            try:
                request = await _read_request_in_time(reader)
            except HttpError as exc:
                status = exc.status
                err = proto.ProtocolError(
                    "invalid_request" if status < 500 else "internal",
                    str(exc),
                )
                with _ctx.bound_context(request_id=scope.request_id):
                    await send_json(
                        writer,
                        status,
                        proto.error_envelope(err, request_id=scope.request_id),
                    )
                return
            self._mark_busy()
            # Honor a well-formed client-supplied X-Request-Id (retries
            # keep one logical request one trace); generate otherwise.
            supplied = request.headers.get("x-request-id")
            if proto.valid_request_id(supplied):
                scope.request_id = supplied
            if _OBS.enabled:
                scope.tracer = Tracer(
                    _OBS.tracer.sink, trace_id=scope.request_id
                )
            with _ctx.bound_context(
                tracer=scope.tracer, request_id=scope.request_id
            ):
                if scope.tracer is not None:
                    scope.root_span_id = scope.tracer.start_span(
                        self.span_name,
                        method=request.method,
                        path=request.path,
                    )
                try:
                    route, status = await self._dispatch(
                        request, writer, scope
                    )
                finally:
                    if scope.tracer is not None:
                        scope.tracer.end_span(route=route, status=status)
        except (ConnectionError, asyncio.IncompleteReadError, ClientGone):
            status = 0  # client went away; nothing to send
        except Exception as exc:  # last-resort 500, never a crash
            status = 500
            try:
                with _ctx.bound_context(request_id=scope.request_id):
                    await send_error(
                        writer,
                        proto.ProtocolError(
                            "internal", f"{type(exc).__name__}: {exc}"
                        ),
                    )
            except ConnectionError:  # pragma: no cover
                pass
        finally:
            if status:
                self._finish_request(
                    scope, request, route, status, time.perf_counter() - t0
                )
            try:
                writer.close()
                await writer.wait_closed()
            except (ConnectionError, OSError):  # pragma: no cover
                pass

    async def _dispatch(
        self,
        request: HttpRequest,
        writer: asyncio.StreamWriter,
        scope: RequestScope,
    ) -> tuple[str, int]:
        """Route ``request``; returns ``(route label, status)``."""
        matches = [r for r in self.routes if r.matches(request.path)]
        if not matches:
            return "unmatched", await self._send_error(
                writer,
                proto.ProtocolError(
                    "not_found", f"no route for {request.path}"
                ),
            )
        route = next((r for r in matches if r.method == request.method), None)
        if route is None:
            allowed = ", ".join(r.method for r in matches)
            return matches[0].label, await send_error(
                writer,
                proto.ProtocolError(
                    "method_not_allowed", f"only {allowed} is allowed here"
                ),
                [("Allow", allowed)],
            )
        try:
            return route.label, await route.handler(request, writer, scope)
        except proto.ProtocolError as exc:
            return route.label, await self._send_error(writer, exc)


# ----------------------------------------------------------------------
# Client side (the router -> backend hop)


def _request_bytes(
    method: str,
    path: str,
    host: str,
    port: int,
    body: bytes | None,
    headers: Sequence[tuple[str, str]],
) -> bytes:
    head = [f"{method} {path} HTTP/1.1", f"Host: {host}:{port}"]
    for name, value in headers:
        head.append(f"{name}: {value}")
    if body is not None:
        head.append("Content-Type: application/json")
        head.append(f"Content-Length: {len(body)}")
    head.append("Connection: close")
    return ("\r\n".join(head) + "\r\n\r\n").encode("latin-1") + (body or b"")


async def _read_head(
    reader: asyncio.StreamReader,
) -> tuple[int, dict[str, str]]:
    line = await reader.readuntil(b"\r\n")
    parts = line.decode("latin-1").rstrip("\r\n").split(" ", 2)
    if len(parts) < 2 or not parts[0].startswith("HTTP/1."):
        raise HttpError(502, f"malformed status line from backend: {line!r}")
    try:
        status = int(parts[1])
    except ValueError:
        raise HttpError(502, f"malformed status code from backend: {line!r}")
    headers: dict[str, str] = {}
    for _ in range(MAX_HEADER_COUNT + 1):
        raw = await reader.readuntil(b"\r\n")
        if raw == b"\r\n":
            break
        name, sep, value = raw.decode("latin-1").partition(":")
        if sep:
            headers[name.strip().lower()] = value.strip()
    else:
        raise HttpError(502, "too many headers from backend")
    return status, headers


class StreamingResponse:
    """An open backend response: status, headers and a line iterator."""

    def __init__(
        self,
        status: int,
        headers: dict[str, str],
        reader: asyncio.StreamReader,
        writer: asyncio.StreamWriter,
    ) -> None:
        self.status = status
        self.headers = headers
        self._reader = reader
        self._writer = writer

    async def read_body(self) -> bytes:
        """The remaining body (Content-Length-bounded or EOF-delimited)."""
        length = self.headers.get("content-length")
        if length is not None:
            return await self._reader.readexactly(int(length))
        return await self._reader.read()

    async def lines(self) -> AsyncIterator[bytes]:
        """Yield NDJSON lines (newline stripped) until EOF.

        A connection reset mid-stream surfaces as ``ConnectionError`` to
        the caller -- the router's resume path depends on that, so it is
        deliberately not swallowed here.
        """
        while True:
            line = await self._reader.readline()
            if not line:
                return
            line = line.rstrip(b"\r\n")
            if line:
                yield line

    async def aclose(self) -> None:
        try:
            self._writer.close()
            await self._writer.wait_closed()
        except (ConnectionError, OSError):  # pragma: no cover - teardown
            pass


async def open_fetch(
    host: str,
    port: int,
    method: str,
    path: str,
    *,
    body: bytes | None = None,
    headers: Sequence[tuple[str, str]] = (),
    connect_timeout_s: float = 5.0,
) -> StreamingResponse:
    """Send one request and return the response with its stream open."""
    reader, writer = await asyncio.wait_for(
        asyncio.open_connection(host, port), timeout=connect_timeout_s
    )
    try:
        writer.write(_request_bytes(method, path, host, port, body, headers))
        await writer.drain()
        status, resp_headers = await _read_head(reader)
    except BaseException:
        writer.close()
        raise
    return StreamingResponse(status, resp_headers, reader, writer)


async def fetch(
    host: str,
    port: int,
    method: str,
    path: str,
    *,
    body: bytes | None = None,
    headers: Sequence[tuple[str, str]] = (),
    timeout_s: float = 120.0,
    connect_timeout_s: float = 5.0,
) -> tuple[int, dict[str, str], bytes]:
    """One buffered request/response round trip; raises on transport
    failure (``ConnectionError`` / ``OSError`` / ``asyncio.TimeoutError``)
    so callers can treat an unreachable backend as a routing event."""
    resp = await open_fetch(
        host,
        port,
        method,
        path,
        body=body,
        headers=headers,
        connect_timeout_s=connect_timeout_s,
    )
    try:
        payload = await asyncio.wait_for(resp.read_body(), timeout=timeout_s)
    finally:
        await resp.aclose()
    return resp.status, resp.headers, payload
