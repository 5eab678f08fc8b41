"""``repro-serve`` -- the asyncio HTTP/1.1 simulation service.

Dependency-free (stdlib ``asyncio`` streams; no web framework).  Routes:

==========================  ==========================================
``POST /v1/simulate``       run a grid (``mode: sync`` waits and returns
                            every result; ``mode: async`` returns 202 +
                            a job id immediately)
``GET /v1/jobs/<id>``       NDJSON stream: a job header line, one line
                            per grid point as it completes, a terminal
                            ``done`` line
``GET /healthz``            liveness + queue/drain snapshot
``GET /debugz``             live introspection: queue depths per
                            priority/client, in-flight points with age
                            and stage, the coalesce table, and the
                            slowest recent requests
``GET /metrics``            Prometheus text exposition of the process
                            registry (server + engine + folded worker
                            metrics)
==========================  ==========================================

Every request carries an ``X-Request-Id`` (client-supplied when well
formed, generated otherwise), echoed on every response -- including
typed error envelopes -- and stamped on the request's span tree
(``serve.request`` -> ``serve.queue_wait`` / ``serve.coalesce`` /
``serve.compute`` / ``serve.stream``) plus the structured access log,
so one slow request is fully reconstructible offline
(``repro-obs-report serve``; docs/OBSERVABILITY.md).

Overload never 500s: a request that does not fit under the admission
queue's capacity (or the client's fair-share quota) is rejected with
``429`` + ``Retry-After``; SIGTERM/SIGINT enter *drain* mode -- new
simulate calls get ``503 draining`` while queued and in-flight jobs run
to completion, then the process exits 0.

Connections are one-request-per-connection (``Connection: close``),
which keeps the HTTP layer small and makes EOF-delimited NDJSON
streaming trivially correct.
"""

from __future__ import annotations

import argparse
import asyncio
import json
import logging
import sys
import time
from collections import OrderedDict, deque
from dataclasses import dataclass
from typing import Sequence

from repro.obs import instruments as _inst
from repro.obs.state import STATE as _OBS
from repro.sim.export import nan_to_none
from repro.serve import http1
from repro.serve import protocol as proto
from repro.serve.coalesce import Coalescer
from repro.serve.http1 import HttpRequest, RequestScope, Route
from repro.serve.lifecycle import add_service_args, run_main
from repro.serve.queue import AdmissionError, AdmissionQueue, QueueClosed
from repro.serve.workers import (
    JOB_DONE,
    Job,
    SimulationEngine,
    WorkItem,
    WorkerPool,
    observe_stage,
)

__all__ = ["ServeConfig", "ServeApp", "main", "build_parser"]

#: Finished jobs kept for late ``GET /v1/jobs/<id>`` readers.
FINISHED_JOB_BACKLOG = 1024

#: Completed requests remembered for ``/debugz``'s slow-request ring,
#: and how many of them (slowest-first) the endpoint reports.
RECENT_REQUESTS = 256
RECENT_SLOWEST = 16

#: Structured JSON access log (one JSON object per line, stdlib
#: ``logging``).  ``--access-log`` attaches a stderr handler; embedders
#: and tests attach their own handler to this logger instead.
_ACCESS_LOG = logging.getLogger("repro.serve.access")


@dataclass
class ServeConfig:
    """Everything ``repro-serve`` can be told from the command line."""

    host: str = "127.0.0.1"
    port: int = 8537
    concurrency: int = 4  # asyncio workers draining the queue
    queue_capacity: int = 512
    per_client: int | None = None  # default: capacity // 4
    mc_workers: int = 1  # processes per grid point (PR-2 executor)
    cache_dir: str | None = None  # on-disk ResultCache directory
    compute_floor_s: float = 0.0  # min service time per computed point
    drain_grace_s: float = 30.0  # max seconds to wait for drain
    access_log: bool = False  # JSON access-log lines to stderr
    trace_out: str | None = None  # span JSONL file (enables tracing sink)
    obs_enabled: bool = True  # --no-obs: skip metrics/tracing entirely


class ServeApp(http1.HttpService):
    """The wired service: queue -> coalescer -> engine -> workers + HTTP."""

    prog = "repro-serve"
    span_name = "serve.request"

    def __init__(self, config: ServeConfig | None = None) -> None:
        super().__init__(config if config is not None else ServeConfig())
        self.queue = AdmissionQueue(
            capacity=self.config.queue_capacity,
            per_client=self.config.per_client,
            # Late-bound: the engine is constructed a few lines below,
            # and the EWMA reads fresh on every rejection.
            service_time_s=lambda: self.engine.point_seconds_ewma,
            workers=self.config.concurrency,
        )
        self.coalescer = Coalescer()
        self.engine = SimulationEngine(
            mc_workers=self.config.mc_workers,
            cache_dir=self.config.cache_dir,
            compute_floor_s=self.config.compute_floor_s,
        )
        self.pool = WorkerPool(
            self.queue,
            self.coalescer,
            self.engine,
            concurrency=self.config.concurrency,
        )
        self.jobs: OrderedDict[str, Job] = OrderedDict()
        #: Last ``RECENT_REQUESTS`` completed requests; ``/debugz``
        #: reports the slowest of them.  Event-loop only.
        self._recent: deque[dict] = deque(maxlen=RECENT_REQUESTS)
        self.routes = [
            Route("healthz", "GET", "/healthz", self._handle_healthz),
            Route("debugz", "GET", "/debugz", self._handle_debugz),
            Route("metrics", "GET", "/metrics", self._handle_metrics),
            Route("simulate", "POST", "/v1/simulate", self._handle_simulate),
            Route("jobs", "GET", "/v1/jobs/", self._handle_job_stream),
        ]

    # -- lifecycle hooks ------------------------------------------------

    async def _prepare(self) -> None:
        if self.config.access_log and not _ACCESS_LOG.handlers:
            handler = logging.StreamHandler(sys.stderr)
            handler.setFormatter(logging.Formatter("%(message)s"))
            _ACCESS_LOG.addHandler(handler)
            _ACCESS_LOG.setLevel(logging.INFO)
        await self.pool.start()

    async def _finish_work(self, grace_s: float) -> None:
        """Stop admitting; every queued and in-flight job completes."""
        self.queue.close()
        try:
            await asyncio.wait_for(self.pool.join(), timeout=grace_s)
        except asyncio.TimeoutError:  # pragma: no cover - pathological jobs
            await self.pool.abort()

    async def _release(self, grace_s: float) -> None:
        self.engine.close()

    # -- per-request bookkeeping ----------------------------------------

    def _finish_request(
        self,
        scope: RequestScope,
        request: HttpRequest | None,
        route: str,
        status: int,
        elapsed: float,
    ) -> None:
        """Metrics, the slow-request ring and the access-log line."""
        if _OBS.enabled:
            reg = _OBS.registry
            reg.counter(
                _inst.SERVE_REQUESTS,
                "HTTP requests served, by route and status",
                labelnames=("route", "status"),
            ).labels(route=route, status=status).inc()
            reg.histogram(
                _inst.SERVE_REQUEST_SECONDS,
                "Wall time per HTTP request",
                labelnames=("route",),
            ).labels(route=route).observe(elapsed)
        entry = {
            "request_id": scope.request_id,
            "route": route,
            "status": status,
            "duration_s": round(elapsed, 6),
            "client": scope.access.get("client"),
        }
        self._recent.append(entry)
        if not (self.config.access_log or _ACCESS_LOG.handlers):
            return
        record: dict[str, object] = {
            "ts": time.time(),
            "request_id": scope.request_id,
            "method": request.method if request is not None else None,
            "path": request.path if request is not None else None,
            "route": route,
            "status": status,
            "duration_s": round(elapsed, 6),
        }
        for key in ("client", "priority", "mode", "job_id"):
            if key in scope.access:
                record[key] = scope.access[key]
        stages = scope.access.get("stages_s")
        if stages:
            record["stages_s"] = {
                k: round(v, 6) for k, v in stages.items()
            }
        coalesce = scope.access.get("coalesce")
        if coalesce:
            record["coalesce"] = coalesce
        _ACCESS_LOG.info(
            json.dumps(
                nan_to_none(record), allow_nan=False, separators=(",", ":")
            )
        )

    async def _send_error(
        self, writer: asyncio.StreamWriter, exc: proto.ProtocolError
    ) -> int:
        if _OBS.enabled and exc.code in ("overloaded", "draining"):
            _OBS.registry.counter(
                _inst.SERVE_REJECTS,
                "Admission rejections, by reason",
                labelnames=("reason",),
            ).labels(reason=getattr(exc, "reject_reason", exc.code)).inc()
        return await http1.send_error(writer, exc)

    # -- endpoints ------------------------------------------------------

    async def _handle_healthz(
        self,
        request: HttpRequest,
        writer: asyncio.StreamWriter,
        scope: RequestScope,
    ) -> int:
        doc = {
            "status": "draining" if self.draining else "ok",
            "uptime_s": round(time.monotonic() - self.started_s, 3),
            "queued_points": self.queue.depth(),
            "inflight_points": self.pool.in_flight,
            "coalesced_inflight": self.coalescer.in_flight(),
            "jobs": len(self.jobs),
            "protocol_version": proto.PROTOCOL_VERSION,
        }
        await http1.send_json(writer, 200, doc)
        return 200

    async def _handle_debugz(
        self,
        request: HttpRequest,
        writer: asyncio.StreamWriter,
        scope: RequestScope,
    ) -> int:
        """Live introspection: queue, in-flight, coalesce table, jobs,
        and the slowest recent requests.  Everything is a snapshot taken
        on the event loop, so the document is internally consistent."""
        jobs_by_state: dict[str, int] = {}
        for job in self.jobs.values():
            jobs_by_state[job.state] = jobs_by_state.get(job.state, 0) + 1
        doc = {
            "status": "draining" if self.draining else "ok",
            "uptime_s": round(time.monotonic() - self.started_s, 3),
            "obs_enabled": _OBS.enabled,
            "queue": self.queue.snapshot(),
            "inflight": self.pool.inflight_snapshot(),
            "coalesce": self.coalescer.snapshot(),
            "jobs": {"held": len(self.jobs), "by_state": jobs_by_state},
            "recent_slowest": sorted(
                self._recent,
                key=lambda entry: entry["duration_s"],
                reverse=True,
            )[:RECENT_SLOWEST],
        }
        await http1.send_json(writer, 200, doc)
        return 200

    def _draining_error(self) -> proto.ProtocolError:
        return proto.ProtocolError(
            "draining",
            "server is draining; retry against a healthy instance",
            retry_after_s=self.config.drain_grace_s,
        )

    async def _handle_simulate(
        self,
        request: HttpRequest,
        writer: asyncio.StreamWriter,
        scope: RequestScope,
    ) -> int:
        sim = proto.parse_simulate_body(request.body)
        scope.access["client"] = sim.client
        scope.access["priority"] = sim.priority
        scope.access["mode"] = sim.mode
        if self.draining:
            raise self._draining_error()
        job = Job(sim, request_id=scope.request_id)
        job.root_span_id = scope.root_span_id
        scope.access["job_id"] = job.id
        now = time.perf_counter()
        items = [
            WorkItem(job=job, point=p, enqueued_s=now) for p in sim.points
        ]
        try:
            self.queue.put_batch(
                items, client=sim.client, priority=sim.priority
            )
        except QueueClosed:
            raise self._draining_error()
        except AdmissionError as exc:
            # The queue computed the hint at rejection time from its own
            # depth and the engine's live service-time EWMA.
            err = proto.ProtocolError(
                "overloaded", str(exc), retry_after_s=exc.retry_after_s
            )
            err.reject_reason = (
                "client_quota"
                if "quota" in str(exc)
                else "queue_full"
            )
            raise err
        self._remember_job(job)
        if _OBS.enabled:
            _OBS.registry.gauge(
                _inst.SERVE_QUEUE_DEPTH, "Grid points awaiting a worker"
            ).set(self.queue.depth())
        if sim.mode == "async":
            await http1.send_json(
                writer,
                202,
                proto.job_envelope(
                    job.id,
                    job.state,
                    job.n_points,
                    0,
                    request_id=scope.request_id,
                ),
            )
            return 202
        await job.wait_done()
        scope.access["stages_s"] = job.stage_s
        scope.access["coalesce"] = job.source_counts
        if job.state != JOB_DONE:
            raise proto.ProtocolError("internal", job.error or "job failed")
        results = [
            proto.result_line(r.point, r.stats, r.source)
            for r in job.results
        ]
        # The response write is the job's "stream" stage: span it on the
        # request tracer and fold it into the Server-Timing breakdown.
        t_stream = time.perf_counter()
        if scope.tracer is not None:
            scope.tracer.start_span("serve.stream", mode="sync")
        try:
            timing = proto.server_timing_value(job.stage_s)
            await http1.send_json(
                writer,
                200,
                proto.sync_response(
                    job.id,
                    job.state,
                    results,
                    round(job.elapsed_s, 6),
                    request_id=scope.request_id,
                ),
                [(proto.SERVER_TIMING_HEADER, timing)] if timing else (),
            )
        finally:
            if scope.tracer is not None:
                scope.tracer.end_span()
            observe_stage(
                "stream", time.perf_counter() - t_stream, job
            )
        return 200

    def _remember_job(self, job: Job) -> None:
        self.jobs[job.id] = job
        while len(self.jobs) > FINISHED_JOB_BACKLOG:
            # Evict the oldest *finished* job; never drop a live one.
            for job_id, held in self.jobs.items():
                if held.done:
                    del self.jobs[job_id]
                    break
            else:
                break

    async def _handle_job_stream(
        self,
        request: HttpRequest,
        writer: asyncio.StreamWriter,
        scope: RequestScope,
    ) -> int:
        job_id = request.path[len("/v1/jobs/"):]
        job = self.jobs.get(job_id)
        if job is None:
            raise proto.ProtocolError(
                "not_found", f"no job {job_id!r} on this server"
            )
        scope.access["client"] = job.request.client
        scope.access["job_id"] = job.id
        # EOF-delimited NDJSON: no Content-Length, Connection: close.
        writer.write(http1.ndjson_head(scope.request_id))
        # The header line carries the *admitting* request's id, joining
        # an async job's NDJSON output to the trace of the POST that
        # created it (this GET has its own id, echoed in the header).
        writer.write(
            http1.json_payload(
                proto.job_envelope(
                    job.id,
                    job.state,
                    job.n_points,
                    len(job.results),
                    request_id=job.request_id,
                )
            )
        )
        await writer.drain()
        t_stream = time.perf_counter()
        if scope.tracer is not None:
            scope.tracer.start_span("serve.stream", job_id=job.id)
        try:
            async for result in job.stream():
                writer.write(
                    http1.json_payload(
                        proto.result_line(
                            result.point, result.stats, result.source
                        )
                    )
                )
                await writer.drain()
            writer.write(
                http1.json_payload(
                    proto.done_line(
                        job.id, job.state, round(job.elapsed_s, 6), job.error
                    )
                )
            )
            await writer.drain()
        finally:
            if scope.tracer is not None:
                scope.tracer.end_span(results=len(job.results))
            observe_stage("stream", time.perf_counter() - t_stream)
        scope.access["coalesce"] = job.source_counts
        return 200


# ----------------------------------------------------------------------
# Entry point


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog=ServeApp.prog,
        description=(
            "Serve the paper's QCD-vs-CRC-CD simulation grid over HTTP "
            "with admission control, request coalescing and NDJSON "
            "streaming (see docs/SERVING.md)."
        ),
    )
    cfg = ServeConfig()
    add_service_args(parser, cfg)
    parser.add_argument(
        "--concurrency",
        type=int,
        default=cfg.concurrency,
        help="asyncio workers executing grid points "
        f"(default {cfg.concurrency})",
    )
    parser.add_argument(
        "--queue-capacity",
        type=int,
        default=cfg.queue_capacity,
        help="max queued grid points before 429s "
        f"(default {cfg.queue_capacity})",
    )
    parser.add_argument(
        "--per-client",
        type=int,
        default=None,
        help="max queued grid points per client "
        "(default: queue capacity / 4)",
    )
    parser.add_argument(
        "--mc-workers",
        type=int,
        default=cfg.mc_workers,
        help="processes sharding each grid point's Monte-Carlo rounds "
        f"(default {cfg.mc_workers})",
    )
    parser.add_argument(
        "--cache-dir",
        default=None,
        help="on-disk result-cache directory shared by all requests",
    )
    parser.add_argument(
        "--compute-floor",
        type=float,
        default=cfg.compute_floor_s,
        metavar="SECONDS",
        dest="compute_floor_s",
        help="minimum service time per computed grid point (capacity "
        "experiments and drain tests; default 0)",
    )
    parser.add_argument(
        "--access-log",
        action="store_true",
        dest="access_log",
        help="emit one structured JSON access-log line per request "
        "to stderr",
    )
    return parser


def main(argv: Sequence[str] | None = None) -> int:
    config = ServeConfig(**vars(build_parser().parse_args(argv)))
    return run_main(
        ServeApp(config),
        f"concurrency={config.concurrency}, "
        f"queue={config.queue_capacity}, mc-workers={config.mc_workers}",
    )


if __name__ == "__main__":
    sys.exit(main())
