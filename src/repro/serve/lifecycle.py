"""The service skeleton shared by ``repro-serve``, ``repro-serve-router``
and ``repro-gateway``.

All three are asyncio TCP servers with the same life:

1. **start** -- enable :mod:`repro.obs` (with a JSONL trace sink under
   ``--trace-out``), run the app's own start-up, then listen;
2. **serve** -- every connection runs as a tracked handler task.  A
   handler counts as *idle* until its connection has delivered a request
   head; the HTTP apps mark it busy once one has, the gateway never does
   (its in-flight work is inventory sessions, not connections);
3. **drain** (SIGTERM/SIGINT or :meth:`Service.begin_drain`) -- the app
   finishes its in-flight work, busy handlers finish their responses,
   the listener closes, idle connections are cut, the app releases what
   it holds, and the trace sink is detached and closed.

So no app ever waits out a client that connected and sent nothing.
Apps plug into the sequence through three hooks: :meth:`Service._prepare`,
:meth:`Service._finish_work` and :meth:`Service._release`.

Only the stdlib and :mod:`repro.obs` are imported here, so the gateway
pays nothing for sharing this module with the HTTP tier.
"""

from __future__ import annotations

import argparse
import asyncio
import signal
import time

from repro import obs
from repro.obs.state import STATE as _OBS
from repro.obs.tracing import JsonlSink, NullSink, Tracer

__all__ = ["Service", "add_service_args", "run_main", "settle"]


async def settle(tasks, timeout: float) -> None:
    """Wait up to ``timeout`` seconds for ``tasks``; cancel the rest."""
    if not tasks:
        return
    _done, pending = await asyncio.wait(set(tasks), timeout=timeout)
    for task in pending:
        task.cancel()
    if pending:
        await asyncio.gather(*pending, return_exceptions=True)


class Service:
    """Listen -> track handlers -> drain -> close listener -> detach sink.

    ``config`` needs ``host``, ``port``, ``drain_grace_s``, ``trace_out``
    and ``obs_enabled``.  Subclasses set :attr:`prog` and implement
    :meth:`_handle_connection`.
    """

    #: Program name in the banner and the drained line.
    prog: str

    def __init__(self, config) -> None:
        self.config = config
        self.draining = False
        self.started_s = time.monotonic()
        self.port: int | None = None
        self._server: asyncio.base_events.Server | None = None
        self._closed = asyncio.Event()
        self._drain_task: asyncio.Task | None = None
        self._handlers: set[asyncio.Task] = set()
        #: Handlers whose connection has not delivered a request head
        #: yet, with the writer that cuts them loose at drain.
        self._idle: dict[asyncio.Task, asyncio.StreamWriter] = {}
        self._trace_sink: JsonlSink | None = None

    # -- hooks ----------------------------------------------------------

    async def _prepare(self) -> None:
        """App start-up, after obs is enabled and before listening."""

    async def _handle_connection(
        self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ) -> None:
        raise NotImplementedError

    async def _finish_work(self, grace_s: float) -> None:
        """Drain step 1: let the app's in-flight work complete."""

    async def _release(self, grace_s: float) -> None:
        """Drain step 4: after the listener closed, release resources."""

    # -- lifecycle ------------------------------------------------------

    async def start(self) -> None:
        """Enable obs, run the app's start-up, bind the listener."""
        if self.config.obs_enabled:
            if self.config.trace_out:
                self._trace_sink = JsonlSink(self.config.trace_out)
            obs.enable(sink=self._trace_sink)
        await self._prepare()
        self._server = await asyncio.start_server(
            self._accept, self.config.host, self.config.port
        )
        self.port = self._server.sockets[0].getsockname()[1]

    async def _accept(
        self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ) -> None:
        task = asyncio.current_task()
        self._handlers.add(task)
        self._idle[task] = writer
        try:
            await self._handle_connection(reader, writer)
        finally:
            self._handlers.discard(task)
            self._idle.pop(task, None)

    def _mark_busy(self) -> None:
        """The current connection delivered a request head: a drain now
        waits for its response instead of cutting it."""
        self._idle.pop(asyncio.current_task(), None)

    async def wait_closed(self) -> None:
        await self._closed.wait()

    def begin_drain(self) -> None:
        """Stop taking new work, finish what is in flight, then close.

        Idempotent; safe to call from a signal handler on the loop.
        """
        if self._drain_task is not None:
            return
        self.draining = True
        self._drain_task = asyncio.get_running_loop().create_task(
            self._drain()
        )

    async def _drain(self) -> None:
        grace = self.config.drain_grace_s
        await self._finish_work(grace)
        # Busy handlers finish their responses; requests that arrive
        # meanwhile are still read and answered (typically "draining").
        loop = asyncio.get_running_loop()
        deadline = loop.time() + grace
        while busy := self._handlers - self._idle.keys():
            remaining = deadline - loop.time()
            if remaining <= 0:
                break
            await asyncio.wait(busy, timeout=remaining)
        await self._stop_listening()
        for writer in self._idle.values():
            writer.transport.abort()
        await settle(self._handlers, max(0.0, deadline - loop.time()))
        if self._server is not None:
            await self._server.wait_closed()
        await self._release(grace)
        if self._trace_sink is not None:
            # Detach before closing so a late emit from shared obs state
            # cannot hit a closed file handle.
            if _OBS.tracer.sink is self._trace_sink:
                _OBS.tracer = Tracer(NullSink())
            self._trace_sink.close()
        self._closed.set()

    async def _stop_listening(self) -> None:
        """Close the listener without losing a connection mid-accept.

        asyncio accepts a socket in one loop pass, attaches its transport
        in the next, calls ``connection_made`` in the one after, and the
        handler task's first step (:meth:`_accept`) runs one pass later.
        A transport cannot attach to a closed server: asyncio then leaves
        the socket open, and its client waits out its own timeout.  So
        stop accepting first, let the passes run, then close; every
        accepted connection is a tracked handler by then.
        """
        if self._server is None:
            return
        loop = asyncio.get_running_loop()
        for sock in self._server.sockets:
            loop.remove_reader(sock.fileno())
        for _ in range(3):
            await asyncio.sleep(0)
        self._server.close()

    async def aclose(self) -> None:
        """Drain and wait until fully closed (test/embedding helper)."""
        self.begin_drain()
        await self.wait_closed()


def add_service_args(parser: argparse.ArgumentParser, defaults) -> None:
    """The flags every service takes: ``--host``, ``--port``,
    ``--drain-grace``, ``--trace-out`` and ``--no-obs``."""
    parser.add_argument("--host", default=defaults.host)
    parser.add_argument(
        "--port",
        type=int,
        default=defaults.port,
        help=f"TCP port; 0 picks a free one (default {defaults.port})",
    )
    parser.add_argument(
        "--drain-grace",
        type=float,
        default=defaults.drain_grace_s,
        metavar="SECONDS",
        dest="drain_grace_s",
        help="max seconds to wait for in-flight work on SIGTERM "
        f"(default {defaults.drain_grace_s:.0f})",
    )
    parser.add_argument(
        "--trace-out",
        default=None,
        metavar="PATH",
        dest="trace_out",
        help="append span/event trace records as JSONL to PATH",
    )
    parser.add_argument(
        "--no-obs",
        action="store_false",
        dest="obs_enabled",
        help="disable metrics and tracing entirely",
    )


async def _serve(app: Service, banner: str) -> int:
    await app.start()
    loop = asyncio.get_running_loop()
    for sig in (signal.SIGTERM, signal.SIGINT):
        try:
            loop.add_signal_handler(sig, app.begin_drain)
        except NotImplementedError:  # pragma: no cover - non-POSIX loops
            pass
    print(
        f"{app.prog} listening on {app.config.host}:{app.port} ({banner})",
        flush=True,
    )
    await app.wait_closed()
    print(f"{app.prog} drained; exiting", flush=True)
    return 0


def run_main(app: Service, banner: str) -> int:
    """Run ``app`` until a signal drains it; the process exit code.

    Prints ``"<prog> listening on <host>:<port> (<banner>)"`` once bound
    and ``"<prog> drained; exiting"`` at the end; other programs parse
    both lines.
    """
    obs.reset()
    try:
        return asyncio.run(_serve(app, banner))
    except KeyboardInterrupt:  # pragma: no cover - double ^C
        return 130
