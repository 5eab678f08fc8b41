"""Process-level lifecycle of ``repro-serve-router`` and ``repro-gateway``.

The banner and the drained line are parsed by other programs: the
router's backend supervisor reads ``repro-serve``'s banner for its port,
and the repository benchmark matches ``"<prog> listening on
[\\d.]+:(\\d+)"`` and requires ``"<prog> drained; exiting"`` after a
SIGTERM.  Both lines must stay byte-identical.  (``repro-serve``'s own
run is pinned by ``test_server.py::TestDrain``.)
"""

from __future__ import annotations

import json
import os
import re
import signal
import socket
import subprocess
import sys
from pathlib import Path

import pytest

from repro.gateway.client import GatewayClient

SRC = Path(__file__).resolve().parent.parent.parent / "src"


def _free_port() -> int:
    with socket.socket() as sock:
        sock.bind(("127.0.0.1", 0))
        return sock.getsockname()[1]


def _env() -> dict[str, str]:
    env = dict(os.environ)
    existing = env.get("PYTHONPATH")
    env["PYTHONPATH"] = str(SRC) + (os.pathsep + existing if existing else "")
    return env


def _spawn(module: str, *args: str) -> subprocess.Popen:
    return subprocess.Popen(
        [sys.executable, "-m", module, "--port", "0", *args],
        stdout=subprocess.PIPE,
        stderr=subprocess.STDOUT,
        env=_env(),
        text=True,
    )


def _listening_port(process: subprocess.Popen, prog: str) -> int:
    """Port from the banner (stderr is merged: skip warnings before it)."""
    seen = []
    for line in process.stdout:
        seen.append(line)
        match = re.search(rf"{re.escape(prog)} listening on [\d.]+:(\d+)", line)
        if match:
            return int(match.group(1))
    raise AssertionError(f"no banner before EOF: {seen!r}")


def _sigterm_and_check_drained(process: subprocess.Popen, prog: str) -> None:
    process.send_signal(signal.SIGTERM)
    out, _ = process.communicate(timeout=30)
    assert process.returncode == 0, out
    assert f"{prog} drained; exiting" in out.splitlines(), out


@pytest.mark.slow
class TestCliLifecycle:
    def test_router_banner_and_sigterm_drain(self):
        process = _spawn(
            "repro.serve.router",
            "--backends",
            "0",
            "--attach",
            f"127.0.0.1:{_free_port()}",
        )
        try:
            port = _listening_port(process, "repro-serve-router")
            with socket.create_connection(("127.0.0.1", port), timeout=10):
                pass
            _sigterm_and_check_drained(process, "repro-serve-router")
        finally:
            if process.poll() is None:
                process.kill()
                process.wait(timeout=10)

    def test_gateway_banner_drain_and_metrics_snapshot(self, tmp_path):
        metrics = tmp_path / "metrics.json"
        process = _spawn(
            "repro.gateway.gateway",
            "--readers",
            "1",
            "--metrics-out",
            str(metrics),
        )
        try:
            port = _listening_port(process, "repro-gateway")
            with GatewayClient("127.0.0.1", port, timeout_s=20.0) as client:
                client.ping()
            _sigterm_and_check_drained(process, "repro-gateway")
        finally:
            if process.poll() is None:
                process.kill()
                process.wait(timeout=10)
        doc = json.loads(metrics.read_text())
        samples = doc["repro_gateway_crc_failures_total"]["samples"]
        assert samples == [{"labels": {}, "value": 0}], samples

    def test_gateway_module_runs_without_warnings(self):
        """``python -m repro.gateway.gateway`` must not find its own
        module already imported by the package (a ``RuntimeWarning`` on
        stderr before anything else)."""
        done = subprocess.run(
            [sys.executable, "-m", "repro.gateway.gateway", "--help"],
            capture_output=True,
            env=_env(),
            text=True,
            timeout=60,
        )
        assert done.returncode == 0
        assert "repro-gateway" in done.stdout
        assert done.stderr == ""
