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
