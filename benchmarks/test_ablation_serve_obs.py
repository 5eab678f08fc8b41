"""Ablation -- cost of request tracing on the serve pipeline.

With observability disabled (``repro-serve --no-obs``) the serve path
still pays a small fixed per-request bookkeeping toll: generating and
validating the request id, binding the (empty) trace context around
dispatch, the per-stage ``note_stage`` updates on the job, the response
header lookup, and the slow-request ring append.  That toll must stay
under 5% of even the *cheapest* real request the server can answer.

Like ``test_ablation_observability``, the baseline is measured in the
same process: ``_bookkeeping_once`` replicates exactly the disabled-mode
observability operations one request executes (nothing else -- no
parsing, no compute, no socket), and the gate compares its per-call
cost against the measured warm latency of a real ``GET /healthz`` --
the lightest route, hence the most conservative denominator.  Sync
simulate requests are strictly more expensive, so their relative
overhead is lower still.

Enabled mode is exercised too (informational): full tracing to a JSONL
sink must serve correctly and leave a non-empty trace, and its latency
is recorded for the record -- tracing every span is allowed to cost
real time.
"""

from __future__ import annotations

import asyncio
import threading
import time

import pytest

from repro import obs
from repro.obs import context as _ctx
from repro.obs.state import STATE as _OBS
from repro.serve import protocol as proto
from repro.serve.client import ServeClient
from repro.serve.server import ServeApp, ServeConfig
from repro.serve.workers import Job

K = 2_000  # bookkeeping iterations per timing sample
ROUNDS = 10  # min-of-N samples for both sides of the ratio
WARM_REQUESTS = 30


@pytest.fixture(autouse=True)
def clean_obs():
    obs.disable()
    obs.reset()
    yield
    obs.disable()
    obs.reset()


class _BenchApp:
    """A ServeApp on a background event-loop thread (ephemeral port)."""

    def __init__(self, **overrides) -> None:
        config = ServeConfig(port=0, **overrides)
        self._ready = threading.Event()
        self.app: ServeApp | None = None
        self.loop: asyncio.AbstractEventLoop | None = None
        self.port: int | None = None
        self._thread = threading.Thread(
            target=self._run, args=(config,), daemon=True
        )
        self._thread.start()
        if not self._ready.wait(20):
            raise RuntimeError("bench server did not start")

    def _run(self, config: ServeConfig) -> None:
        async def amain() -> None:
            app = ServeApp(config)
            await app.start()
            self.app = app
            self.loop = asyncio.get_running_loop()
            self.port = app.port
            self._ready.set()
            await app.wait_closed()

        asyncio.run(amain())

    def client(self) -> ServeClient:
        return ServeClient(f"http://127.0.0.1:{self.port}", retries=0)

    def shutdown(self) -> None:
        assert self.app is not None and self.loop is not None
        self.loop.call_soon_threadsafe(self.app.begin_drain)
        self._thread.join(30)


_REQUEST = proto.parse_simulate_request(
    {
        "version": 1,
        "cases": ["I"],
        "protocols": ["fsa"],
        "schemes": ["crc"],
        "rounds": 2,
        "client": "bench",
    }
)


def _bookkeeping_once(recent: list) -> None:
    """Every observability operation one disabled-mode request pays.

    Mirrors the obs-specific additions in the shared request pipeline
    (``repro.serve.http1.HttpService._handle_connection``) and
    ``WorkerPool._process``: id generation + validation, the enabled
    branch, the context binding around dispatch, the response-header id
    lookup, one point's worth of stage attribution, and the
    ``_finish_request`` ring entry.
    """
    rid = _ctx.new_request_id()
    proto.valid_request_id(rid)
    job = Job(_REQUEST, request_id=rid)
    tracer = None if not _OBS.enabled else _OBS.tracer
    with _ctx.bound_context(tracer=tracer, request_id=rid):
        _ctx.current_request_id()
        job.note_stage("queue_wait", 1e-6)
        job.note_stage("compute", 1e-6)
        job.note_stage("coalesce", 1e-6)
        job.note_stage("stream", 1e-6)
    recent.append(
        {
            "request_id": rid,
            "route": "simulate",
            "status": 200,
            "duration_s": 0.0,
            "client": "bench",
        }
    )


def _time_bookkeeping() -> float:
    """Per-request bookkeeping cost (seconds), min-of-ROUNDS."""
    best = float("inf")
    for _ in range(ROUNDS):
        recent: list = []
        start = time.perf_counter()
        for _ in range(K):
            _bookkeeping_once(recent)
        best = min(best, (time.perf_counter() - start) / K)
    return best


@pytest.mark.benchmark(group="serve-obs-overhead")
def test_disabled_bookkeeping_under_5_percent_of_a_request(benchmark):
    """The --no-obs per-request toll is <5% of the cheapest request."""
    server = _BenchApp(concurrency=2, mc_workers=1, obs_enabled=False)
    try:
        client = server.client()
        assert client.healthz()["status"] == "ok"  # warm the path
        request_min = float("inf")
        for _ in range(WARM_REQUESTS):
            start = time.perf_counter()
            client.healthz()
            request_min = min(request_min, time.perf_counter() - start)
    finally:
        server.shutdown()

    assert not obs.is_enabled()
    _time_bookkeeping()  # warm

    def run() -> float:
        return _time_bookkeeping()

    bookkeeping = benchmark.pedantic(run, rounds=3, iterations=1)
    overhead = bookkeeping / request_min
    benchmark.extra_info["bookkeeping_s"] = bookkeeping
    benchmark.extra_info["request_min_s"] = request_min
    benchmark.extra_info["overhead_fraction"] = overhead
    assert overhead < 0.05, (
        f"disabled-obs serve bookkeeping is {overhead:.1%} of a warm "
        f"request ({bookkeeping * 1e6:.1f}us vs {request_min * 1e6:.1f}us)"
    )


@pytest.mark.benchmark(group="serve-obs-overhead")
def test_enabled_tracing_serves_and_writes_spans(benchmark, tmp_path):
    """Full tracing on: requests succeed and the JSONL trace is real."""
    trace_path = tmp_path / "trace.jsonl"
    server = _BenchApp(
        concurrency=2, mc_workers=1, trace_out=str(trace_path)
    )
    doc = dict(_REQUEST.to_wire(), mode="sync")
    try:
        client = server.client()
        body = client.simulate(doc)  # warm (computes + caches the point)
        assert len(body["results"]) == 1

        def run() -> dict:
            return client.simulate(doc)

        result = benchmark.pedantic(run, rounds=3, iterations=1)
        assert result["state"] == "done"
        rid = client.last_request_id
    finally:
        server.shutdown()  # drain flushes the sink

    from repro.obs.report import load_trace, spans_for_request

    records = load_trace(trace_path)
    assert records, "trace file is empty"
    spans = spans_for_request(records, rid)
    assert {"serve.request", "serve.coalesce"} <= {s["name"] for s in spans}
