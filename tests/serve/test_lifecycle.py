"""The service skeleton (:mod:`repro.serve.lifecycle`) under the three
apps: one drain policy and one command-line shape."""

from __future__ import annotations

import asyncio
import socket
import time

import pytest

from repro.gateway import gateway as gateway_mod
from repro.serve import router as router_mod
from repro.serve import server as server_mod


def _free_port() -> int:
    with socket.socket() as sock:
        sock.bind(("127.0.0.1", 0))
        return sock.getsockname()[1]


def _make_app(kind: str):
    if kind == "serve":
        return server_mod.ServeApp(server_mod.ServeConfig(port=0))
    if kind == "router":
        return router_mod.RouterApp(
            router_mod.RouterConfig(
                port=0, backends=0, attach=(f"127.0.0.1:{_free_port()}",)
            )
        )
    return gateway_mod.GatewayApp(gateway_mod.GatewayConfig(port=0, readers=1))


@pytest.mark.parametrize("kind", ["serve", "router", "gateway"])
def test_idle_connection_does_not_hold_the_drain(kind):
    """A client that connects and sends nothing is cut at drain instead
    of holding it for the request-read timeout."""

    async def scenario() -> float:
        app = _make_app(kind)
        await app.start()
        _reader, writer = await asyncio.open_connection("127.0.0.1", app.port)
        await asyncio.sleep(0.2)  # accepted, waiting for a request head
        t0 = time.monotonic()
        try:
            await asyncio.wait_for(app.aclose(), timeout=10)
        finally:
            writer.close()
        return time.monotonic() - t0

    assert asyncio.run(scenario()) < 2.0


_SIMULATE = (
    b'{"version": 1, "cases": ["I"], "protocols": ["fsa"], '
    b'"schemes": ["qcd-8"], "rounds": 1, "seed": 7}'
)


def _reply_then_close(sock: socket.socket) -> bytes:
    """Everything ``sock`` receives until the service closes it (a reset
    counts as a close); raises ``TimeoutError`` if it is left open."""
    chunks = []
    try:
        while chunk := sock.recv(65536):
            chunks.append(chunk)
    except ConnectionResetError:
        pass
    return b"".join(chunks)


@pytest.mark.parametrize("kind", ["serve", "router", "gateway"])
def test_connection_accepted_as_the_drain_closes_is_answered(kind):
    """A connection asyncio accepts in the loop pass where the drain closes
    the listener still gets a typed 503 or a close.

    The client connects while the loop is busy, so the listener's accept
    callback queues behind this coroutine.  The drain starts from here, and
    the accept runs next, before the drain's first step.  With no
    in-flight work to wait for (router, gateway), that step reaches the
    listener at once, while the accepted socket's transport is still one
    pass away.  asyncio cannot attach a transport to a closed server: it
    leaves the socket open, and the client waits out its own timeout.
    """

    async def scenario() -> socket.socket:
        app = _make_app(kind)
        await app.start()
        client = socket.create_connection(("127.0.0.1", app.port), timeout=5)
        client.sendall(
            b"POST /v1/simulate HTTP/1.1\r\nHost: x\r\n"
            b"Content-Length: %d\r\n\r\n%s" % (len(_SIMULATE), _SIMULATE)
        )
        time.sleep(0.05)  # the handshake is done: the listener is readable
        await asyncio.sleep(0)  # the accept callback queues behind us
        app.begin_drain()
        await asyncio.wait_for(app.wait_closed(), timeout=10)
        return client

    client = asyncio.run(scenario())
    with client:
        reply = _reply_then_close(client)
    assert reply == b"" or (
        reply.startswith(b"HTTP/1.1 503") and b'"draining"' in reply
    ), reply[:80]


@pytest.mark.parametrize("module", [server_mod, router_mod, gateway_mod])
def test_parser_defaults_equal_config_defaults(module):
    config_cls = {
        server_mod: server_mod.ServeConfig,
        router_mod: router_mod.RouterConfig,
        gateway_mod: gateway_mod.GatewayConfig,
    }[module]
    args = module.build_parser().parse_args([])
    assert config_cls(**vars(args)) == config_cls()


def test_router_flags_map_onto_config_fields():
    args = router_mod.build_parser().parse_args(
        ["--attach", "h:1, h:2,", "--cache-dir", "l2", "--trace-out", "t.jsonl"]
    )
    config = router_mod.RouterConfig(**vars(args))
    assert config.attach == ("h:1", "h:2")
    assert config.cache_dir == "l2"
    assert config.trace_out == "t.jsonl"
