"""The HTTP request pipeline that ``repro-serve`` and ``repro-serve-router``
share: read with a deadline, typed 408/400 on a stalled or malformed
head, ``X-Request-Id`` honoured or generated, typed 404/405, and a
last-resort 500 when a route handler raises.

Every case runs against both apps.  The router is started with one
attached backend on a dead port, so none of these requests crosses a
backend hop (nor needs one): they are all answered at the front door.
Requests go over raw sockets so malformed and stalled heads can be sent
byte for byte.
"""

from __future__ import annotations

import json
import socket
import sys

import pytest

from repro.serve import http1
from repro.serve import protocol as proto
from repro.serve.router import RouterApp
from repro.serve.server import ServeApp


def _free_port() -> int:
    with socket.socket() as sock:
        sock.bind(("127.0.0.1", 0))
        return sock.getsockname()[1]


@pytest.fixture(params=["serve", "router"])
def start(request, make_app, make_router):
    """Factory: start the parametrized app; returns its handle."""

    def factory():
        if request.param == "serve":
            return make_app(concurrency=1)
        return make_router(
            backends=0, attach=(f"127.0.0.1:{_free_port()}",)
        )

    factory.app_class = ServeApp if request.param == "serve" else RouterApp
    return factory


def _exchange(port: int, data: bytes) -> tuple[int, dict[str, str], dict]:
    """Send ``data`` (without half-closing) and read the whole response."""
    with socket.create_connection(("127.0.0.1", port), timeout=20) as sock:
        sock.sendall(data)
        chunks = []
        while True:
            chunk = sock.recv(65536)
            if not chunk:
                break
            chunks.append(chunk)
    head, _, body = b"".join(chunks).partition(b"\r\n\r\n")
    lines = head.decode("latin-1").split("\r\n")
    status = int(lines[0].split(" ")[1])
    headers = {}
    for line in lines[1:]:
        name, _, value = line.partition(":")
        headers[name.strip().lower()] = value.strip()
    return status, headers, json.loads(body)


def _get(path: str, *headers: str, method: str = "GET") -> bytes:
    head = [f"{method} {path} HTTP/1.1", "Host: test", *headers]
    return ("\r\n".join(head) + "\r\n\r\n").encode("latin-1")


def _assert_typed(status, headers, doc, expected_status, code):
    assert status == expected_status, (status, doc)
    assert doc["error"]["code"] == code, doc
    assert proto.valid_request_id(headers["x-request-id"]), headers
    assert doc["request_id"] == headers["x-request-id"], (headers, doc)


class TestPipeline:
    def test_stalled_head_is_typed_408(self, start, monkeypatch):
        # The timeout is read per connection; the serve module keeps its
        # own name for it, so patch wherever the app looks it up.
        for module in (http1, sys.modules[start.app_class.__module__]):
            monkeypatch.setattr(
                module, "REQUEST_READ_TIMEOUT", 0.3, raising=False
            )
        handle = start()
        status, headers, doc = _exchange(
            handle.port, b"GET /healthz HTTP/1.1\r\nHost: test\r\n"
        )
        _assert_typed(status, headers, doc, 408, "invalid_request")

    def test_malformed_request_line_is_typed_400(self, start):
        handle = start()
        status, headers, doc = _exchange(handle.port, b"NONSENSE\r\n\r\n")
        _assert_typed(status, headers, doc, 400, "invalid_request")

    def test_unknown_path_is_404(self, start):
        handle = start()
        status, headers, doc = _exchange(handle.port, _get("/nope"))
        _assert_typed(status, headers, doc, 404, "not_found")

    @pytest.mark.parametrize(
        "method,path,allowed",
        [("POST", "/healthz", "GET"), ("GET", "/v1/simulate", "POST")],
    )
    def test_wrong_method_is_405_with_allow(
        self, start, method, path, allowed
    ):
        handle = start()
        status, headers, doc = _exchange(
            handle.port, _get(path, method=method)
        )
        _assert_typed(status, headers, doc, 405, "method_not_allowed")
        assert headers["allow"] == allowed

    def test_raising_handler_is_last_resort_500(self, start, monkeypatch):
        async def boom(self, *args, **kwargs):
            raise RuntimeError("boom")

        monkeypatch.setattr(start.app_class, "_handle_healthz", boom)
        handle = start()
        status, headers, doc = _exchange(handle.port, _get("/healthz"))
        _assert_typed(status, headers, doc, 500, "internal")
        assert "RuntimeError: boom" in doc["error"]["message"]

    def test_well_formed_request_id_is_echoed(self, start):
        handle = start()
        status, headers, doc = _exchange(
            handle.port, _get("/nope", "X-Request-Id: pin-0001.a_b")
        )
        assert status == 404
        assert headers["x-request-id"] == "pin-0001.a_b"
        assert doc["request_id"] == "pin-0001.a_b"

    def test_malformed_request_id_is_replaced(self, start):
        handle = start()
        status, headers, doc = _exchange(
            handle.port, _get("/nope", "X-Request-Id: bad/id")
        )
        assert status == 404
        assert headers["x-request-id"] != "bad/id"
        assert proto.valid_request_id(headers["x-request-id"])
        assert doc["request_id"] == headers["x-request-id"]
