"""``repro-serve-router`` -- the consistent-hash fleet front door.

One router process sits in front of N ``repro-serve`` backends (spawned
subprocesses or externally managed addresses) and makes the
single-process serving guarantees *fleet-wide*:

* **placement** -- every grid point is hashed on its
  :func:`repro.experiments.cache.cache_key` content hash onto a
  consistent-hash ring (:mod:`repro.serve.ring`), so identical points
  from any number of clients always land on the same backend, whose
  in-process coalescer and memo dedupe them: N identical requests still
  cost one kernel run across the whole fleet;
* **tiered cache** -- backends share one on-disk
  :class:`~repro.experiments.cache.ResultCache` directory (L2) behind
  their per-process memo (L1); ring placement makes each key's owner its
  only routine L2 writer (single-writer discipline);
* **failure routing** -- a backend failing its health probe, answering
  ``503 draining``, or dropping a connection is ejected from the ring;
  its keys remap to the survivors and the affected forward is retried
  once on the new owner, so a SIGKILLed or draining backend never
  surfaces as a client-visible 5xx;
* **async jobs** -- ``mode: async`` jobs are homed on one backend; the
  router proxies their NDJSON stream and, if the home dies mid-stream,
  resubmits the job to the new owner and resumes the stream without
  duplicating already-delivered result lines.

Routes mirror ``repro-serve`` (``POST /v1/simulate``, ``GET
/v1/jobs/<id>``, ``/healthz``, ``/metrics``); ``/healthz`` additionally
reports per-backend state and URLs so operators (and the CI smoke job)
can find the fleet members.  ``X-Request-Id`` is honored/generated
exactly like the backend does and forwarded verbatim on every hop, so
one logical request is one trace across both tiers; ``ROUTER_*``
metrics and ``router.*`` spans cover the router's own pipeline.
"""

from __future__ import annotations

import argparse
import asyncio
import json
import secrets
import sys
import time
from collections import OrderedDict
from dataclasses import dataclass, replace
from typing import Sequence

from repro.experiments.cache import cache_key, grid_point_params
from repro.experiments.config import CRC_BITS, ID_BITS, TAU
from repro.obs import context as _ctx
from repro.obs import instruments as _inst
from repro.obs.state import STATE as _OBS
from repro.serve import http1
from repro.serve import protocol as proto
from repro.serve.backend import (
    Backend,
    BackendSpawnConfig,
    BackendSupervisor,
)
from repro.serve.http1 import ClientGone, HttpRequest, RequestScope, Route
from repro.serve.lifecycle import add_service_args, run_main
from repro.serve.ring import DEFAULT_VNODES, EmptyRingError, HashRing

__all__ = ["RouterConfig", "RouterApp", "main", "build_parser"]

#: Async jobs remembered for ``GET /v1/jobs/<id>`` proxying/resume.
JOB_BACKLOG = 1024

#: Transport failures that mean "this backend hop failed", as opposed to
#: a parsed HTTP response.  ``http1.HttpError`` covers a malformed
#: backend response (a dying process can truncate mid-head).
_HOP_ERRORS = (
    ConnectionError,
    OSError,
    asyncio.TimeoutError,
    asyncio.IncompleteReadError,
    http1.HttpError,
)


async def _client_write(writer: asyncio.StreamWriter, data: bytes) -> None:
    """Write to the *client*; a failure raises :class:`ClientGone`."""
    try:
        writer.write(data)
        await writer.drain()
    except (ConnectionError, OSError) as exc:
        raise ClientGone(str(exc)) from exc


@dataclass
class RouterConfig:
    """Everything ``repro-serve-router`` can be told from the CLI."""

    host: str = "127.0.0.1"
    port: int = 8600
    backends: int = 2  # spawned repro-serve processes
    attach: tuple[str, ...] = ()  # "host:port" of external backends
    backend_concurrency: int = 4
    mc_workers: int = 1
    queue_capacity: int = 512
    cache_dir: str | None = None  # shared L2 ResultCache directory
    compute_floor_s: float = 0.0
    vnodes: int = DEFAULT_VNODES
    retries: int = 1  # re-routes per forward after an ejection
    health_interval_s: float = 0.5
    health_timeout_s: float = 2.0
    forward_timeout_s: float = 300.0
    restart: bool = True  # respawn dead spawned backends
    restart_backoff_s: float = 0.5
    drain_grace_s: float = 30.0
    trace_out: str | None = None
    obs_enabled: bool = True


@dataclass
class RouterJob:
    """One async job homed on a backend, resumable after its death."""

    id: str  # the router-level job id clients see
    doc: dict  # the validated simulate body (canonical wire form)
    backend_id: str
    backend_job_id: str
    request_id: str | None
    n_points: int
    resumes: int = 0


def new_router_job_id() -> str:
    return f"rjob-{secrets.token_hex(8)}"


def _point_json(point_doc: object) -> str:
    return json.dumps(point_doc, sort_keys=True, separators=(",", ":"))


class RouterApp(http1.HttpService):
    """The wired router: ring + supervisor + HTTP front end."""

    prog = "repro-serve-router"
    span_name = "router.request"

    def __init__(self, config: RouterConfig | None = None) -> None:
        super().__init__(config if config is not None else RouterConfig())
        if self.config.backends < 0:
            raise ValueError("backends must be >= 0")
        if not self.config.backends and not self.config.attach:
            raise ValueError("router needs at least one backend")
        self.ring = HashRing(vnodes=self.config.vnodes)
        backends: list[Backend] = []
        spawn_config = BackendSpawnConfig(
            concurrency=self.config.backend_concurrency,
            mc_workers=self.config.mc_workers,
            queue_capacity=self.config.queue_capacity,
            cache_dir=self.config.cache_dir,
            compute_floor_s=self.config.compute_floor_s,
            drain_grace_s=self.config.drain_grace_s,
        )
        for i in range(self.config.backends):
            backends.append(Backend(f"b{i}", spawn_config=replace(spawn_config)))
        for i, addr in enumerate(self.config.attach):
            host, _, port = addr.rpartition(":")
            backends.append(
                Backend(f"ext{i}", host=host or "127.0.0.1", port=int(port))
            )
        self.supervisor = BackendSupervisor(
            backends,
            on_up=self._backend_up,
            on_down=self._backend_down,
            health_interval_s=self.config.health_interval_s,
            health_timeout_s=self.config.health_timeout_s,
            restart=self.config.restart,
            restart_backoff_s=self.config.restart_backoff_s,
        )
        self.jobs: OrderedDict[str, RouterJob] = OrderedDict()
        self.routes = [
            Route("healthz", "GET", "/healthz", self._handle_healthz),
            Route("metrics", "GET", "/metrics", self._handle_metrics),
            Route("simulate", "POST", "/v1/simulate", self._handle_simulate),
            Route("jobs", "GET", "/v1/jobs/", self._handle_job_stream),
        ]
        #: Set once at least one backend has joined the ring; simulate
        #: calls arriving before that wait (briefly) instead of 503ing
        #: during the fleet's first seconds.
        self._ring_ready = asyncio.Event()

    # -- ring membership ------------------------------------------------

    def _backend_up(self, backend: Backend) -> None:
        self.ring.add(backend.id)
        self._ring_ready.set()
        self._gauge_backends()

    def _backend_down(self, backend: Backend, reason: str) -> None:
        self.ring.remove(backend.id)
        self._gauge_backends()
        if _OBS.enabled:
            _OBS.registry.counter(
                _inst.ROUTER_EJECTIONS,
                "Backends ejected from the ring, by reason",
                labelnames=("reason",),
            ).labels(reason=reason.split(":")[0].replace(" ", "_")).inc()

    def _gauge_backends(self) -> None:
        if _OBS.enabled:
            _OBS.registry.gauge(
                _inst.ROUTER_BACKENDS_HEALTHY,
                "Healthy backends currently on the hash ring",
            ).set(len(self.ring))

    # -- lifecycle hooks ------------------------------------------------

    async def _prepare(self) -> None:
        await self.supervisor.start()

    async def _release(self, grace_s: float) -> None:
        """Drain the spawned backends once no request is left."""
        await self.supervisor.stop(grace_s)

    def _finish_request(
        self,
        scope: RequestScope,
        request: HttpRequest | None,
        route: str,
        status: int,
        elapsed: float,
    ) -> None:
        if _OBS.enabled:
            _OBS.registry.counter(
                _inst.ROUTER_REQUESTS,
                "Requests through the router, by route and status",
                labelnames=("route", "status"),
            ).labels(route=route, status=status).inc()

    # -- key derivation -------------------------------------------------

    def point_key(
        self, rounds: int, seed: int, point: proto.GridPoint
    ) -> str:
        """The PR-2 cache-key content hash -- the fleet routing key.

        Uses :func:`grid_point_params` with the paper-default timing
        model, which is exactly what every backend's suite hashes (the
        serve tier exposes no timing overrides).
        """
        return cache_key(
            grid_point_params(
                rounds=rounds,
                seed=seed,
                tau=TAU,
                id_bits=ID_BITS,
                crc_bits=CRC_BITS,
                case_name=point.case.name,
                n_tags=point.case.n_tags,
                frame_size=point.case.frame_size,
                protocol=point.protocol,
                scheme=point.scheme,
            )
        )

    # -- endpoints ------------------------------------------------------

    async def _handle_healthz(
        self,
        request: HttpRequest,
        writer: asyncio.StreamWriter,
        scope: RequestScope,
    ) -> int:
        doc = {
            "status": "draining" if self.draining else "ok",
            "router": True,
            "uptime_s": round(time.monotonic() - self.started_s, 3),
            "ring_nodes": len(self.ring),
            "backends": [
                b.snapshot() for b in self.supervisor.backends
            ],
            "jobs": len(self.jobs),
            "protocol_version": proto.PROTOCOL_VERSION,
        }
        await http1.send_json(writer, 200, doc)
        return 200

    async def _handle_simulate(
        self,
        request: HttpRequest,
        writer: asyncio.StreamWriter,
        scope: RequestScope,
    ) -> int:
        # Validate at the edge: a malformed request never crosses the
        # backend hop (and therefore never counts against the fleet).
        sim = proto.parse_simulate_body(request.body)
        if self.draining:
            raise proto.ProtocolError(
                "draining",
                "router is draining; retry against a healthy instance",
                retry_after_s=self.config.drain_grace_s,
            )
        # Give the fleet a beat on cold start before shedding.
        try:
            await asyncio.wait_for(self._ring_ready.wait(), timeout=10.0)
        except asyncio.TimeoutError:
            pass
        if not len(self.ring):
            raise proto.ProtocolError(
                "overloaded",
                "no healthy backend on the ring",
                retry_after_s=self.config.health_interval_s * 4,
            )
        if sim.mode == "async":
            return await self._simulate_async(sim, writer, scope.request_id)
        return await self._simulate_sync(sim, writer, scope.request_id)

    # -- forwarding core ------------------------------------------------

    def _owner_for(self, key: str, tried: set[str]) -> Backend | None:
        """The healthiest untried owner of ``key`` in ring fallback order."""
        try:
            order = self.ring.owners(key, len(self.ring))
        except EmptyRingError:
            return None
        for backend_id in order:
            if backend_id in tried:
                continue
            backend = self.supervisor.by_id(backend_id)
            if backend is not None and backend.port is not None:
                return backend
        return None

    async def _forward(
        self,
        key: str,
        method: str,
        path: str,
        body: bytes | None,
        rid: str,
        *,
        timeout_s: float | None = None,
    ) -> tuple[int, dict[str, str], bytes, Backend]:
        """One keyed hop with eject-and-retry-once routing.

        Transport failures and ``503 draining`` eject the backend from
        the ring and re-route to the key's next owner, up to
        ``config.retries`` times; anything else (including 429) is the
        caller's to interpret.  Raises :class:`proto.ProtocolError`
        (``overloaded``) when every owner in reach has failed.
        """
        tried: set[str] = set()
        attempts = self.config.retries + 1
        last_reason = "no healthy backend on the ring"
        for attempt in range(attempts):
            backend = self._owner_for(key, tried)
            if backend is None:
                break
            tried.add(backend.id)
            tracer = _ctx.current_tracer()
            if tracer is not None:
                tracer.start_span(
                    "router.forward",
                    backend=backend.id,
                    path=path,
                    attempt=attempt,
                )
            t0 = time.perf_counter()
            outcome = "error"
            try:
                status, headers, payload = await http1.fetch(
                    backend.host,
                    backend.port,
                    method,
                    path,
                    body=body,
                    headers=[(proto.REQUEST_ID_HEADER, rid)],
                    timeout_s=(
                        timeout_s
                        if timeout_s is not None
                        else self.config.forward_timeout_s
                    ),
                )
            except _HOP_ERRORS as exc:
                last_reason = f"{type(exc).__name__} from {backend.id}"
                self.supervisor.eject(backend, "unreachable")
                self._count_forward(backend.id, "error", t0)
                self._count_retry()
                continue
            finally:
                if tracer is not None:
                    tracer.end_span(outcome=outcome)
            if status == 503 and _error_code(payload) == "draining":
                last_reason = f"backend {backend.id} draining"
                self.supervisor.eject(backend, "draining")
                self._count_forward(backend.id, "shed", t0)
                self._count_retry()
                continue
            self._count_forward(
                backend.id, "ok" if status < 500 else "error", t0
            )
            return status, headers, payload, backend
        raise proto.ProtocolError(
            "overloaded",
            f"no backend could serve this point ({last_reason})",
            retry_after_s=max(1.0, self.config.health_interval_s * 4),
        )

    def _count_forward(self, backend_id: str, outcome: str, t0: float) -> None:
        if not _OBS.enabled:
            return
        reg = _OBS.registry
        reg.counter(
            _inst.ROUTER_FORWARDS,
            "Router -> backend hops, by backend and outcome",
            labelnames=("backend", "outcome"),
        ).labels(backend=backend_id, outcome=outcome).inc()
        reg.histogram(
            _inst.ROUTER_FORWARD_SECONDS,
            "Wall time per backend hop",
            labelnames=("backend",),
        ).labels(backend=backend_id).observe(time.perf_counter() - t0)

    def _count_retry(self) -> None:
        if _OBS.enabled:
            _OBS.registry.counter(
                _inst.ROUTER_RETRIES,
                "Forwards re-routed to a new owner after an ejection",
            ).inc()

    # -- sync fan-out ---------------------------------------------------

    @staticmethod
    def _point_doc(sim: proto.SimulateRequest, point: proto.GridPoint) -> dict:
        """A single-point sync sub-request (the unit of fleet routing)."""
        return {
            "version": proto.PROTOCOL_VERSION,
            "cases": [proto.GridPoint.to_wire(point)["case"]],
            "protocols": [point.protocol],
            "schemes": [point.scheme],
            "rounds": sim.rounds,
            "seed": sim.seed,
            "mode": "sync",
            "priority": sim.priority,
            "client": sim.client,
        }

    async def _simulate_sync(
        self,
        sim: proto.SimulateRequest,
        writer: asyncio.StreamWriter,
        rid: str,
    ) -> int:
        t0 = time.monotonic()

        async def one(point: proto.GridPoint):
            key = self.point_key(sim.rounds, sim.seed, point)
            body = http1.json_payload(self._point_doc(sim, point))
            return await self._forward(key, "POST", "/v1/simulate", body, rid)

        outcomes = await asyncio.gather(
            *(one(p) for p in sim.points), return_exceptions=True
        )
        results: list[dict] = []
        served_by: dict[str, int] = {}
        failure: tuple[int, dict[str, str], bytes] | None = None
        shed: proto.ProtocolError | None = None
        for outcome in outcomes:
            if isinstance(outcome, proto.ProtocolError):
                shed = outcome  # every reachable owner failed
                continue
            if isinstance(outcome, BaseException):
                raise outcome  # unexpected: let the 500 guard report it
            status, headers, payload, backend = outcome
            if status == 200:
                try:
                    doc = json.loads(payload.decode("utf-8"))
                    point_results = doc["results"]
                except (ValueError, KeyError, TypeError):
                    raise RuntimeError(
                        f"backend {backend.id} returned an unparsable "
                        "sync response"
                    )
                results.extend(point_results)
                served_by[backend.id] = (
                    served_by.get(backend.id, 0) + len(point_results)
                )
                continue
            # Prefer reporting the most actionable failure: any hard
            # failure beats a shed; among responses keep the worst.
            if failure is None or status > failure[0]:
                failure = (status, headers, payload)
        if failure is not None:
            return await _relay(writer, *failure)
        if shed is not None:
            raise shed
        doc = proto.sync_response(
            new_router_job_id(),
            "done",
            results,
            round(time.monotonic() - t0, 6),
            request_id=rid,
        )
        doc["served_by"] = dict(sorted(served_by.items()))
        await http1.send_json(writer, 200, doc)
        return 200

    # -- async jobs -----------------------------------------------------

    async def _simulate_async(
        self,
        sim: proto.SimulateRequest,
        writer: asyncio.StreamWriter,
        rid: str,
    ) -> int:
        # Home the whole job on the owner of its first point's key: the
        # job id must live on exactly one backend.  Per-point fleet
        # coalescing still applies to the sync path; an async job's
        # points coalesce within its home backend.
        wire = sim.to_wire()
        key = self.point_key(sim.rounds, sim.seed, sim.points[0])
        status, headers, payload, backend = await self._forward(
            key, "POST", "/v1/simulate", http1.json_payload(wire), rid
        )
        if status != 202:
            return await _relay(writer, status, headers, payload)
        try:
            backend_doc = json.loads(payload.decode("utf-8"))
            backend_job_id = backend_doc["job_id"]
        except (ValueError, KeyError, TypeError):
            raise RuntimeError(
                f"backend {backend.id} returned an unparsable 202"
            )
        job = RouterJob(
            id=new_router_job_id(),
            doc=wire,
            backend_id=backend.id,
            backend_job_id=backend_job_id,
            request_id=rid,
            n_points=len(sim.points),
        )
        self.jobs[job.id] = job
        while len(self.jobs) > JOB_BACKLOG:
            self.jobs.popitem(last=False)
        await http1.send_json(
            writer,
            202,
            proto.job_envelope(
                job.id,
                backend_doc.get("state", "queued"),
                len(sim.points),
                0,
                request_id=rid,
            ),
        )
        return 202

    async def _handle_job_stream(
        self,
        request: HttpRequest,
        writer: asyncio.StreamWriter,
        scope: RequestScope,
    ) -> int:
        job_id = request.path[len("/v1/jobs/"):]
        rid = scope.request_id
        job = self.jobs.get(job_id)
        if job is None:
            raise proto.ProtocolError(
                "not_found", f"no job {job_id!r} on this router"
            )
        head_written = False  # our 200 head (written lazily: see below)
        header_sent = False  # the NDJSON "job" header line
        #: Canonical point JSON of every result line already forwarded on
        #: *this* client stream: a resumed backend stream replays from
        #: the start, and the replayed lines must not reach the client
        #: twice.  Local on purpose -- a separate client GET of the same
        #: job gets the full replay.
        forwarded: set[str] = set()
        # One transparent resume per stream (mirrors the sync path's
        # retry-once): attempt 0 streams from the job's home backend,
        # attempt 1 resubmits to the new owner of the job's key.
        for attempt in range(self.config.retries + 1):
            backend = self.supervisor.by_id(job.backend_id)
            if backend is None or backend.port is None:
                break
            resp: http1.StreamingResponse | None = None
            done_doc: dict | None = None
            try:
                resp = await http1.open_fetch(
                    backend.host,
                    backend.port,
                    "GET",
                    f"/v1/jobs/{job.backend_job_id}",
                    headers=[(proto.REQUEST_ID_HEADER, rid)],
                )
                if resp.status != 200:
                    payload = await resp.read_body()
                    if not head_written:
                        # Nothing sent yet: surface the backend's own
                        # envelope (and status) verbatim.
                        return await _relay(
                            writer, resp.status, resp.headers, payload
                        )
                    break
                if not head_written:
                    # The head goes out only once a backend actually
                    # answered 200 -- a failing first hop can still get
                    # a real error status line.
                    await _client_write(writer, http1.ndjson_head(rid))
                    head_written = True
                async for raw in resp.lines():
                    try:
                        line = json.loads(raw.decode("utf-8"))
                    except ValueError:
                        raise ConnectionError("torn NDJSON line")
                    kind = line.get("type")
                    if kind == "job":
                        if header_sent:
                            continue  # resumed stream: suppress duplicate
                        line["job_id"] = job.id
                        line["location"] = f"/v1/jobs/{job.id}"
                        await _client_write(writer, http1.json_payload(line))
                        header_sent = True
                    elif kind == "result":
                        fingerprint = _point_json(line.get("point"))
                        if fingerprint in forwarded:
                            continue
                        forwarded.add(fingerprint)
                        await _client_write(writer, http1.json_payload(line))
                    elif kind == "done":
                        line["job_id"] = job.id
                        done_doc = line
                if done_doc is not None:
                    await _client_write(writer, http1.json_payload(done_doc))
                    return 200
                # EOF without a done line: the backend died mid-stream.
                raise ConnectionError("stream ended without a done line")
            except _HOP_ERRORS:
                self.supervisor.eject(backend, "unreachable")
                if attempt >= self.config.retries:
                    break
                if not await self._rehome_job(job, rid):
                    break
            finally:
                if resp is not None:
                    await resp.aclose()
        if not head_written:
            # Never reached a backend at all: a typed, retryable error.
            raise proto.ProtocolError(
                "overloaded",
                "the job's backend is gone and could not be replaced; "
                "retry shortly",
                retry_after_s=max(1.0, self.config.health_interval_s * 4),
            )
        # The stream and its resume both failed mid-flight: emit a
        # terminal failed line (valid NDJSON, never a torn connection) so
        # clients see a typed job failure instead of a transport error.
        await _client_write(
            writer,
            http1.json_payload(
                proto.done_line(
                    job.id,
                    "failed",
                    0.0,
                    "backend lost mid-stream and resume failed",
                )
            ),
        )
        return 200

    async def _rehome_job(self, job: RouterJob, rid: str) -> bool:
        """Resubmit a lost job to the current owner of its key.

        Completed points replay from the shared L2 cache (or recompute);
        the stream proxy skips every line already forwarded.
        """
        key_source = job.doc
        try:
            sim = proto.parse_simulate_request(key_source)
        except proto.ProtocolError:  # pragma: no cover - own wire form
            return False
        key = self.point_key(sim.rounds, sim.seed, sim.points[0])
        try:
            status, _headers, payload, backend = await self._forward(
                key,
                "POST",
                "/v1/simulate",
                http1.json_payload(job.doc),
                rid,
            )
        except proto.ProtocolError:
            return False
        if status != 202:
            return False
        try:
            backend_doc = json.loads(payload.decode("utf-8"))
            job.backend_job_id = backend_doc["job_id"]
        except (ValueError, KeyError, TypeError):
            return False
        job.backend_id = backend.id
        job.resumes += 1
        if _OBS.enabled:
            _OBS.registry.counter(
                _inst.ROUTER_STREAM_RESUMES,
                "NDJSON job streams resumed on a surviving backend",
            ).inc()
        return True


async def _relay(
    writer: asyncio.StreamWriter,
    status: int,
    headers: dict[str, str],
    payload: bytes,
) -> int:
    """Pass a backend's error response through verbatim, ``Retry-After``
    included; returns its status.  A failed write raises
    :class:`ClientGone`, so a hop's ``except`` cannot blame the backend
    for a client that hung up."""
    retry_after = headers.get("retry-after")
    try:
        await http1.send_response(
            writer,
            status,
            "application/json",
            payload,
            [("Retry-After", retry_after)] if retry_after else (),
        )
    except (ConnectionError, OSError) as exc:
        raise ClientGone(str(exc)) from exc
    return status


def _error_code(payload: bytes) -> str | None:
    try:
        doc = json.loads(payload.decode("utf-8"))
        return doc.get("error", {}).get("code")
    except (ValueError, AttributeError, UnicodeDecodeError):
        return None


# ----------------------------------------------------------------------
# Entry point


def _attach_list(value: str) -> tuple[str, ...]:
    return tuple(part.strip() for part in value.split(",") if part.strip())


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog=RouterApp.prog,
        description=(
            "Consistent-hash front router over N repro-serve backends: "
            "fleet-wide coalescing, a shared L2 result cache, health "
            "checks with drain-aware routing (see docs/SERVING.md)."
        ),
    )
    cfg = RouterConfig()
    add_service_args(parser, cfg)
    parser.add_argument(
        "--backends",
        type=int,
        default=cfg.backends,
        help=f"repro-serve subprocesses to spawn (default {cfg.backends})",
    )
    parser.add_argument(
        "--attach",
        type=_attach_list,
        default=cfg.attach,
        metavar="HOST:PORT[,HOST:PORT...]",
        help="comma-separated externally managed backends to route to "
        "instead of (or in addition to) spawning",
    )
    parser.add_argument(
        "--backend-concurrency",
        type=int,
        default=cfg.backend_concurrency,
        help="asyncio workers per spawned backend "
        f"(default {cfg.backend_concurrency})",
    )
    parser.add_argument(
        "--mc-workers",
        type=int,
        default=cfg.mc_workers,
        help="MC worker processes per spawned backend "
        f"(default {cfg.mc_workers})",
    )
    parser.add_argument(
        "--queue-capacity",
        type=int,
        default=cfg.queue_capacity,
        help="admission-queue capacity per spawned backend "
        f"(default {cfg.queue_capacity})",
    )
    parser.add_argument(
        "--cache-dir",
        default=None,
        help="shared on-disk ResultCache directory (the L2 tier) handed "
        "to every spawned backend",
    )
    parser.add_argument(
        "--compute-floor",
        type=float,
        default=cfg.compute_floor_s,
        metavar="SECONDS",
        dest="compute_floor_s",
        help="minimum service time per computed point on every spawned "
        "backend (capacity experiments; default 0)",
    )
    parser.add_argument(
        "--vnodes",
        type=int,
        default=cfg.vnodes,
        help=f"virtual nodes per backend on the ring (default {cfg.vnodes})",
    )
    parser.add_argument(
        "--retries",
        type=int,
        default=cfg.retries,
        help="re-routes per forward after an ejection "
        f"(default {cfg.retries})",
    )
    parser.add_argument(
        "--health-interval",
        type=float,
        default=cfg.health_interval_s,
        metavar="SECONDS",
        dest="health_interval_s",
        help=f"seconds between /healthz probes (default {cfg.health_interval_s})",
    )
    parser.add_argument(
        "--no-restart",
        action="store_false",
        dest="restart",
        help="do not respawn spawned backends that die",
    )
    return parser


def main(argv: Sequence[str] | None = None) -> int:
    config = RouterConfig(**vars(build_parser().parse_args(argv)))
    app = RouterApp(config)
    return run_main(
        app,
        f"backends={len(app.supervisor.backends)}, "
        f"vnodes={config.vnodes}, retries={config.retries}",
    )


if __name__ == "__main__":
    sys.exit(main())
