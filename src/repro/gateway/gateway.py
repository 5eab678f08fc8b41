"""``repro-gateway`` -- the binary reader-gateway for simulated fleets.

An asyncio TCP server speaking the LLRP-shaped frame protocol of
:mod:`repro.gateway.codec`, fronting ``--readers`` simulated RFID
readers.  A client connects, asks for :class:`~repro.gateway.codec.Capabilities`,
and starts inventories on individual readers; each inventory runs the
*real* exact :class:`~repro.sim.reader.Reader` (same seed => same
population => same slot trace as a direct call, which is what the
differential acceptance test in ``tests/gateway/test_gateway.py``
asserts) on a worker thread and streams one
:class:`~repro.gateway.codec.TagReport` per identified slot, terminated
by :class:`~repro.gateway.codec.InventoryComplete`.

Robustness contract (mirroring ``repro-serve``, but on the binary
plane):

* malformed input never kills anything: the reassembler turns garbage
  into typed :class:`~repro.gateway.codec.FrameError` values, the
  gateway answers each with an ERROR frame (valid CRC) and keeps the
  connection; a peer that sends nothing but junk is cut off after
  :data:`MAX_CONSECUTIVE_ERRORS` strikes -- a clean close, not a crash;
* per-connection outbound queues are bounded
  (``GatewayConfig.outbox_frames``); a client that stops reading
  backpressures its own sessions, never the process;
* SIGTERM/SIGINT enter *drain*: new START_INVENTORY gets a typed
  ``draining`` ERROR, running sessions finish streaming, then the
  process exits 0 (and ``--metrics-out`` snapshots the registry).

Observability: ``GATEWAY_*`` metrics (frames in/out, CRC failures,
malformed frames, active connections, per-report latency,
inventory outcomes) land in the shared :mod:`repro.obs` registry, and
each connection / inventory gets a ``gateway.session`` /
``gateway.inventory`` span tree -- the reader's own
``inventory -> frame -> slot`` spans nest under the latter because
``asyncio.to_thread`` carries the bound tracer across the thread hop.
"""

from __future__ import annotations

import argparse
import asyncio
import secrets
import sys
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Sequence

from repro.obs import context as _ctx
from repro.obs import instruments as _inst
from repro.obs.state import STATE as _OBS
from repro.obs.tracing import Tracer
from repro.gateway import codec
from repro.gateway import readers as sim_readers
from repro.serve.lifecycle import Service, add_service_args, run_main, settle

__all__ = [
    "GatewayConfig",
    "GatewayApp",
    "MAX_CONSECUTIVE_ERRORS",
    "GATEWAY_VERSION",
    "main",
    "build_parser",
]

#: Wire protocol version reported in CAPABILITIES.
GATEWAY_VERSION = 1

#: A peer whose every frame is garbage gets this many typed ERROR
#: replies before the gateway hangs up (clean close).  Any well-formed
#: frame resets the count.
MAX_CONSECUTIVE_ERRORS = 64

#: Socket read chunk.  Deliberately not a protocol constant: the
#: reassembler accepts arbitrary split points anyway.
_READ_CHUNK = 65536

#: Report-latency histogram buckets (seconds): sub-millisecond stream
#: bursts up to multi-second 50k-tag computes.
REPORT_SECONDS_BUCKETS = (
    0.001, 0.005, 0.01, 0.05, 0.1, 0.5, 1.0, 5.0, 10.0, 30.0,
)


@dataclass
class GatewayConfig:
    """Everything ``repro-gateway`` can be told from the command line."""

    host: str = "127.0.0.1"
    port: int = 5084  # the LLRP port
    readers: int = 4
    keepalive_s: float | None = None  # unsolicited KEEPALIVE interval
    outbox_frames: int = 1024  # bounded per-connection send queue
    drain_grace_s: float = 30.0
    metrics_out: str | None = None  # registry JSON written at drain
    trace_out: str | None = None  # span JSONL (enables tracing sink)
    obs_enabled: bool = True


@dataclass
class _Session:
    """One running inventory: wire session id + reader + its task."""

    session_id: int
    reader: sim_readers.SimulatedReader
    spec: codec.StartInventory
    conn: "_Connection"
    task: asyncio.Task | None = None
    stop_requested: bool = False


class _Connection:
    """Per-connection state: reassembler + bounded outbox + sessions.

    All mutation happens on the event loop; the only cross-task edge is
    the outbox queue between session tasks (producers) and the writer
    task (consumer).
    """

    def __init__(
        self,
        writer: asyncio.StreamWriter,
        outbox_frames: int,
    ) -> None:
        self.conn_id = f"gwc-{secrets.token_hex(6)}"
        self.writer = writer
        self.reassembler = codec.FrameReassembler()
        self.outbox: asyncio.Queue[bytes | None] = asyncio.Queue(
            maxsize=outbox_frames
        )
        self.sessions: dict[int, _Session] = {}
        self.consecutive_errors = 0
        self.closing = False
        self.writer_task: asyncio.Task | None = None
        self.tracer: Tracer | None = None

    async def send(self, frame: codec.Frame) -> None:
        """Encode and enqueue ``frame``; raises ``ConnectionError`` if
        the connection is going away (so session streams abort)."""
        if self.closing:
            raise ConnectionError("connection is closing")
        if _OBS.enabled:
            _OBS.registry.counter(
                _inst.GATEWAY_FRAMES_OUT,
                "Frames sent to gateway clients, by command",
                labelnames=("cmd",),
            ).labels(cmd=type(frame).__name__).inc()
        await self.outbox.put(codec.encode_frame(frame))
        if self.closing:  # raced a close while blocked on a full queue
            raise ConnectionError("connection is closing")

    def abort(self) -> None:
        """Hard-kill the transport (fault injection / tests)."""
        self.closing = True
        transport = self.writer.transport
        if transport is not None:
            transport.abort()

    async def writer_loop(self) -> None:
        """Drain the outbox onto the socket until the ``None`` sentinel.

        On a broken pipe it flips ``closing`` and keeps *discarding*
        queue items so blocked producers (session tasks) wake up and
        see the flag instead of deadlocking on a full queue.
        """
        broken = False
        while True:
            data = await self.outbox.get()
            if data is None:
                return
            if broken:
                continue
            try:
                self.writer.write(data)
                await self.writer.drain()
            except (ConnectionError, OSError):
                self.closing = True
                broken = True


class GatewayApp(Service):
    """The wired gateway: listener -> connections -> reader sessions."""

    prog = "repro-gateway"

    def __init__(self, config: GatewayConfig | None = None) -> None:
        super().__init__(config if config is not None else GatewayConfig())
        self.readers = [
            sim_readers.SimulatedReader(i) for i in range(self.config.readers)
        ]
        self._session_tasks: set[asyncio.Task] = set()
        self._connections: set[_Connection] = set()
        self._sessions: dict[int, _Session] = {}
        self._session_seq = 0

    # -- lifecycle hooks ------------------------------------------------

    async def _prepare(self) -> None:
        """Pre-register the zero-valued metrics."""
        if _OBS.enabled:
            # Pre-register so a clean run's snapshot *shows* the zeros
            # (the CI smoke job asserts crc_failures == 0, which must be
            # distinguishable from "never registered").
            reg = _OBS.registry
            reg.counter(
                _inst.GATEWAY_CRC_FAILURES,
                "Frames dropped for a CRC trailer mismatch",
            ).inc(0)
            reg.gauge(
                _inst.GATEWAY_CONNECTIONS, "Open gateway connections"
            ).set(0)

    async def _finish_work(self, grace_s: float) -> None:
        """Running inventories finish streaming.  Connections carry no
        request of their own, so the drain then cuts them all."""
        await settle(self._session_tasks, grace_s)

    async def _release(self, grace_s: float) -> None:
        if self.config.metrics_out and _OBS.enabled:
            Path(self.config.metrics_out).write_text(
                _OBS.registry.to_json() + "\n"
            )

    def drop_connections(self) -> int:
        """Abort every open connection (fault injection for the
        reconnect-mid-inventory test); returns how many were cut."""
        conns = list(self._connections)
        for conn in conns:
            conn.abort()
        return len(conns)

    # -- connection plumbing --------------------------------------------

    def _set_conn_gauge(self) -> None:
        if _OBS.enabled:
            _OBS.registry.gauge(
                _inst.GATEWAY_CONNECTIONS, "Open gateway connections"
            ).set(len(self._connections))

    async def _handle_connection(
        self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ) -> None:
        conn = _Connection(writer, self.config.outbox_frames)
        self._connections.add(conn)
        self._set_conn_gauge()
        if _OBS.enabled:
            conn.tracer = Tracer(_OBS.tracer.sink, trace_id=conn.conn_id)
        peer = writer.get_extra_info("peername")
        loop = asyncio.get_running_loop()
        conn.writer_task = loop.create_task(conn.writer_loop())
        keepalive_task: asyncio.Task | None = None
        if self.config.keepalive_s:
            keepalive_task = loop.create_task(self._keepalive_loop(conn))
        try:
            with _ctx.bound_context(
                tracer=conn.tracer, request_id=conn.conn_id
            ):
                if conn.tracer is not None:
                    conn.tracer.start_span(
                        "gateway.session", peer=repr(peer)
                    )
                try:
                    await self._read_loop(reader, conn)
                finally:
                    if conn.tracer is not None:
                        conn.tracer.end_span(
                            frames_ok=conn.reassembler.frames_ok,
                            frames_bad=conn.reassembler.frames_bad,
                            garbage_bytes=conn.reassembler.garbage_bytes,
                        )
        except (ConnectionError, OSError, asyncio.IncompleteReadError):
            pass  # peer went away; sessions observe `closing` below
        finally:
            conn.closing = True
            # Sessions still computing skip their streaming phase.
            for sess in list(conn.sessions.values()):
                sess.stop_requested = True
            if keepalive_task is not None:
                keepalive_task.cancel()
            await conn.outbox.put(None)
            if conn.writer_task is not None:
                try:
                    await conn.writer_task
                except asyncio.CancelledError:  # pragma: no cover
                    pass
            try:
                writer.close()
                await writer.wait_closed()
            except (ConnectionError, OSError):  # pragma: no cover
                pass
            self._connections.discard(conn)
            self._set_conn_gauge()

    async def _read_loop(
        self, reader: asyncio.StreamReader, conn: _Connection
    ) -> None:
        while not conn.closing:
            data = await reader.read(_READ_CHUNK)
            if not data:
                tail = conn.reassembler.finish()
                if tail is not None:
                    self._count_bad_frame(tail)
                return
            for item in conn.reassembler.feed(data):
                if isinstance(item, codec.FrameError):
                    if not await self._on_frame_error(conn, item):
                        return  # error budget exhausted: clean close
                    continue
                conn.consecutive_errors = 0
                if _OBS.enabled:
                    _OBS.registry.counter(
                        _inst.GATEWAY_FRAMES_IN,
                        "Well-formed frames received, by command",
                        labelnames=("cmd",),
                    ).labels(cmd=type(item).__name__).inc()
                await self._dispatch(conn, item)

    def _count_bad_frame(self, err: codec.FrameError) -> None:
        if not _OBS.enabled:
            return
        reg = _OBS.registry
        if err.code == "bad_crc":
            reg.counter(
                _inst.GATEWAY_CRC_FAILURES,
                "Frames dropped for a CRC trailer mismatch",
            ).inc()
        else:
            reg.counter(
                _inst.GATEWAY_MALFORMED,
                "Frames rejected before dispatch, by reason",
                labelnames=("reason",),
            ).labels(reason=err.code).inc()

    async def _on_frame_error(
        self, conn: _Connection, err: codec.FrameError
    ) -> bool:
        """Answer a malformed frame with a typed ERROR; returns False
        when the peer has exhausted its error budget."""
        self._count_bad_frame(err)
        conn.consecutive_errors += 1
        if conn.consecutive_errors > MAX_CONSECUTIVE_ERRORS:
            return False
        await conn.send(codec.ErrorFrame(err.code, err.message))
        return True

    async def _keepalive_loop(self, conn: _Connection) -> None:
        try:
            while not conn.closing:
                await asyncio.sleep(self.config.keepalive_s)
                await conn.send(codec.Keepalive())
        except (ConnectionError, asyncio.CancelledError):
            pass

    # -- dispatch -------------------------------------------------------

    async def _dispatch(self, conn: _Connection, frame: codec.Frame) -> None:
        if isinstance(frame, codec.GetCapabilities):
            await conn.send(
                codec.Capabilities(
                    version=GATEWAY_VERSION,
                    n_readers=len(self.readers),
                    max_tags=sim_readers.MAX_TAGS,
                    max_frame_size=sim_readers.MAX_FRAME_SIZE,
                )
            )
        elif isinstance(frame, codec.StartInventory):
            await self._start_inventory(conn, frame)
        elif isinstance(frame, codec.StopInventory):
            await self._stop_inventory(conn, frame)
        elif isinstance(frame, codec.Keepalive):
            await conn.send(codec.KeepaliveAck())
        elif isinstance(frame, codec.KeepaliveAck):
            pass  # reply to our own probe; nothing to do
        else:
            # A syntactically valid frame in the wrong direction
            # (e.g. a client echoing TAG_REPORT at the gateway).
            await conn.send(
                codec.ErrorFrame(
                    "unsupported",
                    f"{type(frame).__name__} is gateway->client only",
                )
            )

    def _alloc_session(self) -> int:
        self._session_seq = self._session_seq % 0xFFFF + 1
        return self._session_seq

    async def _start_inventory(
        self, conn: _Connection, spec: codec.StartInventory
    ) -> None:
        if self.draining:
            await conn.send(
                codec.ErrorFrame(
                    "draining", "gateway is draining; retry elsewhere"
                )
            )
            return
        reason = sim_readers.validate_spec(spec, len(self.readers))
        if reason is not None:
            await conn.send(codec.ErrorFrame("bad_param", reason))
            return
        reader = self.readers[spec.reader_id]
        if reader.busy:
            await conn.send(
                codec.ErrorFrame(
                    "busy",
                    f"reader {reader.reader_id} is busy with session "
                    f"{reader.session}",
                )
            )
            return
        session_id = self._alloc_session()
        reader.acquire(session_id)
        sess = _Session(session_id, reader, spec, conn)
        conn.sessions[session_id] = sess
        self._sessions[session_id] = sess
        await conn.send(codec.InventoryStarted(spec.reader_id, session_id))
        sess.task = asyncio.get_running_loop().create_task(
            self._run_session(sess)
        )
        self._session_tasks.add(sess.task)
        sess.task.add_done_callback(self._session_tasks.discard)

    async def _stop_inventory(
        self, conn: _Connection, stop: codec.StopInventory
    ) -> None:
        if not 0 <= stop.reader_id < len(self.readers):
            await conn.send(
                codec.ErrorFrame(
                    "bad_param",
                    f"no reader {stop.reader_id} "
                    f"(gateway has {len(self.readers)})",
                )
            )
            return
        reader = self.readers[stop.reader_id]
        session_id = reader.session
        sess = self._sessions.get(session_id)
        if sess is not None:
            sess.stop_requested = True
        await conn.send(codec.InventoryStopped(stop.reader_id, session_id))

    # -- inventory sessions ---------------------------------------------

    async def _run_session(self, sess: _Session) -> None:
        spec, conn = sess.spec, sess.conn
        t0 = time.perf_counter()
        outcome = "error"
        tracer: Tracer | None = None
        if _OBS.enabled:
            tracer = Tracer(
                _OBS.tracer.sink,
                trace_id=f"{conn.conn_id}-s{sess.session_id}",
            )
        try:
            with _ctx.bound_context(
                tracer=tracer, request_id=conn.conn_id
            ):
                if tracer is not None:
                    tracer.start_span(
                        "gateway.inventory",
                        session=sess.session_id,
                        reader_id=spec.reader_id,
                        protocol=spec.protocol,
                        scheme=spec.scheme,
                        n_tags=spec.n_tags,
                        seed=spec.seed,
                    )
                try:
                    outcome = await self._run_session_inner(sess, t0)
                finally:
                    if tracer is not None:
                        tracer.end_span(outcome=outcome)
        except asyncio.CancelledError:
            outcome = "cancelled"
            raise
        except (ConnectionError, OSError):
            outcome = "disconnect"
        except Exception as exc:  # never let a session kill the process
            outcome = "error"
            try:
                await conn.send(
                    codec.ErrorFrame(
                        "internal", f"{type(exc).__name__}: {exc}"
                    )
                )
            except (ConnectionError, OSError):
                pass
        finally:
            sess.reader.release()
            conn.sessions.pop(sess.session_id, None)
            self._sessions.pop(sess.session_id, None)
            if _OBS.enabled:
                _OBS.registry.counter(
                    _inst.GATEWAY_INVENTORIES,
                    "Inventory sessions finished, by outcome",
                    labelnames=("protocol", "detector", "outcome"),
                ).labels(
                    protocol=spec.protocol,
                    detector=spec.scheme.split("-", 1)[0],
                    outcome=outcome,
                ).inc()

    async def _run_session_inner(self, sess: _Session, t0: float) -> str:
        """The session body; returns the outcome label.  Exceptions
        propagate to :meth:`_run_session` for classification."""
        spec, conn = sess.spec, sess.conn
        # The blocking inventory runs on a worker thread; the bound
        # tracer rides along via the context copy, so the Reader's own
        # spans nest under gateway.inventory.
        result = await asyncio.to_thread(sim_readers.run_spec, spec)
        histogram = None
        if _OBS.enabled:
            histogram = _OBS.registry.histogram(
                _inst.GATEWAY_REPORT_SECONDS,
                "Seconds from START_INVENTORY to each TAG_REPORT",
                buckets=REPORT_SECONDS_BUCKETS,
            )
        trace = result.trace
        for row, tag_id in zip(trace.identified_rows, trace.identified_tags):
            if sess.stop_requested:
                break
            await conn.send(
                codec.TagReport(
                    reader_id=spec.reader_id,
                    session=sess.session_id,
                    slot=trace.index[row],
                    frame=trace.frame[row],
                    tag_id=tag_id,
                    airtime=trace.end_time[row],
                )
            )
            if histogram is not None:
                histogram.observe(time.perf_counter() - t0)
        stopped = sess.stop_requested
        await conn.send(
            codec.InventoryComplete(
                reader_id=spec.reader_id,
                session=sess.session_id,
                identified=len(result.identified_ids),
                lost=len(result.lost_ids),
                slots=len(result.trace),
                frames=result.stats.frames,
                airtime=result.stats.total_time,
                stopped=stopped,
            )
        )
        return "stopped" if stopped else "done"


# ----------------------------------------------------------------------
# Entry point


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog=GatewayApp.prog,
        description=(
            "Expose a fleet of simulated RFID readers over the binary "
            "frame protocol (see docs/GATEWAY.md).  Clients start real "
            "FSA/DFSA inventories with CRC-CD or QCD collision "
            "detection and stream TAG_REPORT frames back."
        ),
    )
    cfg = GatewayConfig()
    add_service_args(parser, cfg)
    parser.add_argument(
        "--readers",
        type=int,
        default=cfg.readers,
        help=f"simulated readers behind the gateway (default {cfg.readers})",
    )
    parser.add_argument(
        "--keepalive",
        type=float,
        default=None,
        metavar="SECONDS",
        dest="keepalive_s",
        help="send unsolicited KEEPALIVE frames at this interval "
        "(default: off)",
    )
    parser.add_argument(
        "--outbox-frames",
        type=int,
        default=cfg.outbox_frames,
        help="bounded per-connection send queue, in frames "
        f"(default {cfg.outbox_frames})",
    )
    parser.add_argument(
        "--metrics-out",
        default=None,
        metavar="PATH",
        dest="metrics_out",
        help="write the metrics registry as JSON to PATH at drain",
    )
    return parser


def main(argv: Sequence[str] | None = None) -> int:
    config = GatewayConfig(**vars(build_parser().parse_args(argv)))
    return run_main(GatewayApp(config), f"readers={config.readers}")


if __name__ == "__main__":
    sys.exit(main())
