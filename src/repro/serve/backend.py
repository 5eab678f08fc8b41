"""Backend fleet management for the router: spawn, watch, eject, respawn.

A *backend* is one ``repro-serve`` process.  The router either **spawns**
its backends (``repro-serve-router --backends N``: subprocesses on
ephemeral ports, discovered from the startup banner, supervised and
respawned on death) or **attaches** to externally managed ones
(``--attach host:port,...``), and in both cases drives the same health
state machine:

``starting`` -> ``healthy`` <-> ``unreachable``/``draining`` -> ``dead``

* a backend answering ``GET /healthz`` with ``status: ok`` is *healthy*
  and sits on the hash ring;
* one answering ``status: draining`` (SIGTERM received) or failing the
  probe is **ejected** from the ring -- its keys remap to the surviving
  backends and in-flight forwards retry there;
* a spawned backend whose process exits is *dead*; with ``restart`` it
  is respawned (new port, same identity) and rejoins the ring once its
  ``/healthz`` passes again.

Ejection is also **passive**: the router reports forward-time transport
errors straight into :meth:`BackendSupervisor.eject`, so a SIGKILLed
backend leaves the ring at the first failed request, not a probe period
later.
"""

from __future__ import annotations

import asyncio
import json
import os
import sys
from collections import deque
from dataclasses import dataclass
from typing import Callable

from repro.serve import http1

__all__ = [
    "STARTING",
    "HEALTHY",
    "DRAINING",
    "UNREACHABLE",
    "DEAD",
    "BackendSpawnConfig",
    "Backend",
    "BackendSupervisor",
]

STARTING = "starting"
HEALTHY = "healthy"
DRAINING = "draining"
UNREACHABLE = "unreachable"
DEAD = "dead"

#: Stdout/stderr lines kept per backend for diagnostics (/healthz dump).
BANNER_TIMEOUT_S = 60.0
LOG_TAIL = 50


@dataclass
class BackendSpawnConfig:
    """How the router launches its ``repro-serve`` subprocesses."""

    concurrency: int = 4
    mc_workers: int = 1
    queue_capacity: int = 512
    cache_dir: str | None = None  # the shared L2 tier
    compute_floor_s: float = 0.0
    drain_grace_s: float = 30.0
    extra_args: tuple[str, ...] = ()

    def argv(self) -> list[str]:
        args = [
            sys.executable,
            "-m",
            "repro.serve",
            "--port",
            "0",
            "--concurrency",
            str(self.concurrency),
            "--mc-workers",
            str(self.mc_workers),
            "--queue-capacity",
            str(self.queue_capacity),
            "--drain-grace",
            str(self.drain_grace_s),
        ]
        if self.cache_dir is not None:
            args += ["--cache-dir", self.cache_dir]
        if self.compute_floor_s:
            args += ["--compute-floor", str(self.compute_floor_s)]
        args.extend(self.extra_args)
        return args


def _spawn_env() -> dict[str, str]:
    """Subprocess env that can import ``repro`` exactly like this process."""
    env = dict(os.environ)
    import repro

    src = str(os.path.dirname(os.path.dirname(os.path.abspath(repro.__file__))))
    existing = env.get("PYTHONPATH")
    if not existing or src not in existing.split(os.pathsep):
        env["PYTHONPATH"] = src + (os.pathsep + existing if existing else "")
    return env


class Backend:
    """One ``repro-serve`` instance: address, state, optional process."""

    def __init__(
        self,
        backend_id: str,
        host: str | None = None,
        port: int | None = None,
        spawn_config: BackendSpawnConfig | None = None,
    ) -> None:
        if (host is None or port is None) and spawn_config is None:
            raise ValueError("backend needs an address or a spawn config")
        self.id = backend_id
        self.host = host or "127.0.0.1"
        self.port = port
        self.spawn_config = spawn_config
        self.state = STARTING
        self.process: asyncio.subprocess.Process | None = None
        self.restarts = 0
        self.last_error: str | None = None
        self.log_tail: deque[str] = deque(maxlen=LOG_TAIL)
        self._drain_task: asyncio.Task | None = None

    @property
    def spawned(self) -> bool:
        return self.spawn_config is not None

    @property
    def url(self) -> str:
        return f"http://{self.host}:{self.port}"

    def snapshot(self) -> dict:
        doc: dict[str, object] = {
            "id": self.id,
            "url": self.url if self.port is not None else None,
            "state": self.state,
            "spawned": self.spawned,
            "restarts": self.restarts,
        }
        if self.process is not None:
            doc["pid"] = self.process.pid
        if self.last_error:
            doc["last_error"] = self.last_error
        return doc

    # -- process lifecycle ---------------------------------------------

    async def spawn(self) -> None:
        """Start the subprocess and discover its ephemeral port."""
        assert self.spawn_config is not None
        if self._drain_task is not None:
            self._drain_task.cancel()
            self._drain_task = None
        self.process = await asyncio.create_subprocess_exec(
            *self.spawn_config.argv(),
            stdout=asyncio.subprocess.PIPE,
            stderr=asyncio.subprocess.STDOUT,
            env=_spawn_env(),
        )
        self.port = await asyncio.wait_for(
            self._await_banner(), timeout=BANNER_TIMEOUT_S
        )
        # Keep draining stdout forever: a full pipe would wedge the
        # backend; the tail doubles as the crash diagnostic.
        self._drain_task = asyncio.create_task(
            self._drain_stdout(), name=f"backend-{self.id}-stdout"
        )

    async def _await_banner(self) -> int:
        assert self.process is not None and self.process.stdout is not None
        while True:
            raw = await self.process.stdout.readline()
            if not raw:
                raise RuntimeError(
                    f"backend {self.id} exited before its banner "
                    f"(tail: {list(self.log_tail)!r})"
                )
            line = raw.decode("utf-8", "replace").rstrip()
            self.log_tail.append(line)
            if "listening on " in line:
                host_port = line.split("listening on ", 1)[1].split(" ")[0]
                host, _, port = host_port.rpartition(":")
                self.host = host
                return int(port)

    async def _drain_stdout(self) -> None:
        assert self.process is not None and self.process.stdout is not None
        try:
            while True:
                raw = await self.process.stdout.readline()
                if not raw:
                    return
                self.log_tail.append(raw.decode("utf-8", "replace").rstrip())
        except asyncio.CancelledError:  # pragma: no cover - teardown
            raise

    async def terminate(self, grace_s: float = 30.0) -> None:
        """SIGTERM the spawned process (drain) and wait; SIGKILL stragglers."""
        if self.process is None or self.process.returncode is not None:
            return
        try:
            self.process.terminate()
        except ProcessLookupError:  # pragma: no cover - already gone
            return
        try:
            await asyncio.wait_for(self.process.wait(), timeout=grace_s)
        except asyncio.TimeoutError:  # pragma: no cover - pathological
            self.process.kill()
            await self.process.wait()


class BackendSupervisor:
    """Owns the backend set: health probes, ring callbacks, respawns.

    ``on_up(backend)`` / ``on_down(backend, reason)`` fire on every state
    edge into/out of ``healthy`` -- the router wires them to ring
    ``add``/``remove`` plus its ejection metrics.  Both run on the event
    loop, so membership changes are serialized with request routing.
    """

    def __init__(
        self,
        backends: list[Backend],
        *,
        on_up: Callable[[Backend], None],
        on_down: Callable[[Backend, str], None],
        health_interval_s: float = 0.5,
        health_timeout_s: float = 2.0,
        restart: bool = True,
        restart_backoff_s: float = 0.5,
    ) -> None:
        self.backends = backends
        self._on_up = on_up
        self._on_down = on_down
        self.health_interval_s = health_interval_s
        self.health_timeout_s = health_timeout_s
        self.restart = restart
        self.restart_backoff_s = restart_backoff_s
        self._tasks: list[asyncio.Task] = []
        self._stopping = False

    def by_id(self, backend_id: str) -> Backend | None:
        for backend in self.backends:
            if backend.id == backend_id:
                return backend
        return None

    # -- lifecycle ------------------------------------------------------

    async def start(self) -> None:
        spawns = [b for b in self.backends if b.spawned]
        if spawns:
            await asyncio.gather(*(b.spawn() for b in spawns))
        self._tasks = [
            asyncio.create_task(
                self._watch(b), name=f"backend-watch-{b.id}"
            )
            for b in self.backends
        ]

    async def stop(self, grace_s: float = 30.0) -> None:
        """Stop probing, then SIGTERM-drain every spawned backend."""
        self._stopping = True
        for task in self._tasks:
            task.cancel()
        if self._tasks:
            await asyncio.gather(*self._tasks, return_exceptions=True)
        spawned = [b for b in self.backends if b.spawned]
        if spawned:
            await asyncio.gather(
                *(b.terminate(grace_s) for b in spawned)
            )
        for backend in self.backends:
            if backend._drain_task is not None:
                backend._drain_task.cancel()
                await asyncio.gather(
                    backend._drain_task, return_exceptions=True
                )
                backend._drain_task = None

    # -- state edges ----------------------------------------------------

    def _mark(self, backend: Backend, state: str, reason: str) -> None:
        was_healthy = backend.state == HEALTHY
        backend.state = state
        if state == HEALTHY and not was_healthy:
            backend.last_error = None
            self._on_up(backend)
        elif state != HEALTHY and was_healthy:
            backend.last_error = reason
            self._on_down(backend, reason)

    def eject(self, backend: Backend, reason: str) -> None:
        """Passive ejection: a forward just failed against this backend.

        Removes it from the ring immediately (via ``on_down``); the
        probe loop re-admits it when ``/healthz`` passes again.
        """
        if backend.state == HEALTHY:
            self._mark(backend, UNREACHABLE, reason)

    # -- the probe loop -------------------------------------------------

    async def _watch(self, backend: Backend) -> None:
        # ``stop`` sets ``_stopping`` before it cancels this task, and the
        # flag is what ends the loop: on Python 3.11 ``asyncio.wait_for``
        # turns a cancel that lands as the probe's connect fails into
        # that failure, so a probe can swallow the cancel and return.
        while not self._stopping:
            try:
                await self._probe(backend)
            except asyncio.CancelledError:
                raise
            except Exception as exc:  # pragma: no cover - defensive
                backend.last_error = f"probe error: {exc!r}"
            await asyncio.sleep(self.health_interval_s)

    async def _probe(self, backend: Backend) -> None:
        process = backend.process
        if backend.spawned and process is not None and process.returncode is not None:
            self._mark(
                backend, DEAD, f"process exited {process.returncode}"
            )
            if self.restart and not self._stopping:
                await asyncio.sleep(self.restart_backoff_s)
                try:
                    backend.restarts += 1
                    await backend.spawn()
                    backend.state = STARTING
                except (OSError, RuntimeError, asyncio.TimeoutError) as exc:
                    backend.last_error = f"respawn failed: {exc}"
            return
        if backend.port is None:
            return
        try:
            status, _headers, payload = await http1.fetch(
                backend.host,
                backend.port,
                "GET",
                "/healthz",
                timeout_s=self.health_timeout_s,
                connect_timeout_s=self.health_timeout_s,
            )
            doc = json.loads(payload.decode("utf-8"))
        except (
            ConnectionError,
            OSError,
            asyncio.TimeoutError,
            asyncio.IncompleteReadError,
            ValueError,
            http1.HttpError,
        ) as exc:
            self._mark(
                backend, UNREACHABLE, f"healthz failed: {type(exc).__name__}"
            )
            return
        if status == 200 and doc.get("status") == "ok":
            self._mark(backend, HEALTHY, "healthz ok")
        elif doc.get("status") == "draining":
            self._mark(backend, DRAINING, "backend draining")
        else:
            self._mark(
                backend, UNREACHABLE, f"healthz status {status}: {doc!r}"
            )
