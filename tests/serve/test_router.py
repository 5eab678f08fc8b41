"""Router behavior over a live spawned fleet: routing, merging, fleet
coalescing, the async-job proxy and the shared key contract.

Each test spins up a real ``RouterApp`` (in-process, own event-loop
thread) over real spawned ``repro-serve`` subprocesses -- the same
topology ``repro-serve-router`` runs in production.  Failure injection
lives in ``test_router_faults.py``; pure ring math in ``test_ring.py``.
The last two classes drive single coroutines with fakes instead, so
their races (a client reset mid-relay, a probe that swallows its
cancel) happen on every run.
"""

from __future__ import annotations

import asyncio
import json
import re
import urllib.request
from concurrent.futures import ThreadPoolExecutor

import pytest

from repro import obs
from repro.experiments.cache import cache_key
from repro.experiments.config import CASES
from repro.obs import instruments as inst
from repro.serve import http1
from repro.serve.backend import HEALTHY, Backend, BackendSupervisor
from repro.serve.client import ServeError
from repro.serve.http1 import ClientGone, HttpRequest, RequestScope
from repro.serve.protocol import GridPoint
from repro.serve.router import RouterApp, RouterConfig, RouterJob

pytestmark = pytest.mark.slow


def _metric_value(text: str, name: str, **labels) -> float:
    """Sum of a metric's samples matching the given labels."""
    total = 0.0
    found = False
    for line in text.splitlines():
        if not line.startswith(name):
            continue
        if line.startswith(name + "_"):  # histogram components
            continue
        label_part = re.match(rf"{name}(?:{{(.*)}})? ([0-9eE+.-]+)", line)
        if not label_part:
            continue
        raw_labels, value = label_part.groups()
        sample = dict(
            re.findall(r'(\w+)="([^"]*)"', raw_labels or "")
        )
        if all(sample.get(k) == str(v) for k, v in labels.items()):
            total += float(value)
            found = True
    return total if found else 0.0


def _scrape(url: str) -> str:
    with urllib.request.urlopen(url + "/metrics", timeout=10) as resp:
        return resp.read().decode("utf-8")


def _simulate_body(**overrides) -> dict:
    body = {
        "version": 1,
        "cases": ["I"],
        "protocols": ["fsa"],
        "schemes": ["crc"],
        "rounds": 2,
        "seed": 42,
        "mode": "sync",
    }
    body.update(overrides)
    return body


class TestRouting:
    def test_healthz_reports_fleet(self, make_router):
        router = make_router(backends=2)
        router.wait_ring(2)
        doc = router.client().healthz()
        assert doc["router"] is True
        assert doc["status"] == "ok"
        assert doc["ring_nodes"] == 2
        states = {b["id"]: b["state"] for b in doc["backends"]}
        assert states == {"b0": "healthy", "b1": "healthy"}
        assert all(b["url"] for b in doc["backends"])

    def test_sync_fanout_merges_in_point_order(self, make_router):
        router = make_router(backends=2)
        router.wait_ring(2)
        body = _simulate_body(
            cases=["I", "II"], protocols=["fsa", "bt"],
            schemes=["crc", "qcd-8"], seed=101,
        )
        doc = router.client().simulate(body)
        assert doc["state"] == "done"
        assert len(doc["results"]) == 8
        # Results come back in the request's cross-product point order,
        # exactly as a single backend would emit them.
        expected = [
            (case, protocol, scheme)
            for case in ("I", "II")
            for protocol in ("fsa", "bt")
            for scheme in ("crc", "qcd-8")
        ]
        got = [
            (r["point"]["case"]["name"], r["point"]["protocol"],
             r["point"]["scheme"])
            for r in doc["results"]
        ]
        assert got == expected
        # The fan-out genuinely used the fleet.
        assert sum(doc["served_by"].values()) == 8
        assert len(doc["served_by"]) == 2

    def test_same_point_always_routes_to_same_backend(self, make_router):
        router = make_router(backends=2)
        router.wait_ring(2)
        client = router.client()
        owners = set()
        for _ in range(3):
            doc = client.simulate(_simulate_body(seed=77))
            (owner,) = doc["served_by"].keys()
            owners.add(owner)
        assert len(owners) == 1, f"stable key flapped between {owners}"

    def test_request_id_echoed(self, make_router):
        router = make_router(backends=1)
        router.wait_ring(1)
        status, headers, payload = router.client().request(
            "POST", "/v1/simulate", _simulate_body(),
            request_id="cli-router-echo",
        )
        assert status == 200
        lower = {k.lower(): v for k, v in headers.items()}
        assert lower["x-request-id"] == "cli-router-echo"
        assert json.loads(payload)["request_id"] == "cli-router-echo"

    def test_validation_happens_at_the_edge(self, make_router):
        router = make_router(backends=1)
        router.wait_ring(1)
        client = router.client()
        with pytest.raises(ServeError) as excinfo:
            client.simulate(_simulate_body(rounds=-1))
        assert excinfo.value.status == 400
        with pytest.raises(ServeError) as excinfo:
            client.request_json("GET", "/v1/jobs/unknown-job")
        assert excinfo.value.status == 404
        status, _, _ = client.request("PUT", "/v1/simulate", {})
        assert status == 405
        # None of those crossed the backend hop.
        metrics = _scrape(router.url)
        assert _metric_value(metrics, "repro_router_forwards_total") == 0

    def test_429_passes_through_with_retry_after(self, make_router):
        # One backend with a tiny queue and slow compute: overflow sheds.
        router = make_router(
            backends=1, backend_concurrency=1, queue_capacity=1,
            compute_floor_s=0.5,
        )
        router.wait_ring(1)

        def fire(i):
            client = router.client(retries=0, timeout_s=30.0)
            try:
                status, headers, _ = client.request(
                    "POST", "/v1/simulate",
                    _simulate_body(seed=3000 + i),
                )
            except Exception as exc:  # noqa: BLE001 - recorded for assert
                return ("exc", repr(exc))
            lower = {k.lower(): v for k, v in headers.items()}
            return (status, lower.get("retry-after"))

        with ThreadPoolExecutor(max_workers=12) as pool:
            outcomes = list(pool.map(fire, range(12)))
        statuses = [s for s, _ in outcomes]
        assert "exc" not in statuses
        assert all(s in (200, 429) for s in statuses), statuses
        shed = [ra for s, ra in outcomes if s == 429]
        assert shed, "tiny queue never shed -- test lost its overload"
        assert all(ra is not None for ra in shed)  # Retry-After forwarded


class TestFleetCoalescing:
    def test_identical_concurrent_requests_compute_once_fleet_wide(
        self, make_router
    ):
        """The acceptance criterion: N identical concurrent requests
        through the router over 2 backends run the kernel exactly once
        *fleet-wide* -- summed ``repro_mc_rounds_total`` across every
        backend equals one request's rounds."""
        rounds = 5
        router = make_router(backends=2, compute_floor_s=0.5)
        router.wait_ring(2)
        body = _simulate_body(seed=555, rounds=rounds)

        def fire(i):
            client = router.client(retries=0, timeout_s=60.0)
            status, _, payload = client.request(
                "POST", "/v1/simulate", body
            )
            return status, json.loads(payload)

        with ThreadPoolExecutor(max_workers=6) as pool:
            outcomes = list(pool.map(fire, range(6)))
        assert [s for s, _ in outcomes] == [200] * 6
        # Every caller saw the same numbers.
        stats = [doc["results"][0]["stats"] for _, doc in outcomes]
        assert all(s == stats[0] for s in stats)

        per_backend = {
            b.id: _metric_value(_scrape(b.url), "repro_mc_rounds_total")
            for b in router.app.supervisor.backends
        }
        assert sum(per_backend.values()) == rounds, (
            f"fleet computed {per_backend} MC rounds for {rounds} "
            "rounds of identical work -- coalescing is not fleet-wide"
        )

    def test_distinct_points_do_spread_work(self, make_router):
        router = make_router(backends=2)
        router.wait_ring(2)
        client = router.client()
        doc = client.simulate(_simulate_body(
            cases=["I", "II", "III"], protocols=["fsa", "bt"],
            schemes=["crc", "qcd-4", "qcd-8", "qcd-16"], seed=888,
        ))
        assert len(doc["results"]) == 24
        # 24 points over a 2-node 128-vnode ring: both backends serve.
        assert len(doc["served_by"]) == 2


class TestAsyncJobs:
    def test_job_proxied_with_router_identity(self, make_router):
        router = make_router(backends=2)
        router.wait_ring(2)
        client = router.client()
        submitted = client.simulate(_simulate_body(
            schemes=["crc", "qcd-8"], seed=999, mode="async",
        ))
        assert submitted["state"] in ("queued", "running")
        job_id = submitted["job_id"]
        assert job_id.startswith("rjob-")
        assert submitted["location"] == f"/v1/jobs/{job_id}"
        lines = list(client.stream_job(job_id))
        kinds = [line["type"] for line in lines]
        assert kinds[0] == "job" and kinds[-1] == "done"
        assert kinds.count("result") == 2
        # Backend job ids never leak: every line speaks the router's id.
        for line in lines:
            if "job_id" in line:
                assert line["job_id"] == job_id
        assert lines[-1]["state"] == "done"

    def test_run_helper_end_to_end(self, make_router):
        router = make_router(backends=2)
        router.wait_ring(2)
        results = router.client().run(_simulate_body(
            cases=["I", "II"], seed=1234,
        ))
        assert len(results) == 2
        assert all(r["stats"]["n_tags"] is not None for r in results)

    def test_refetching_a_job_replays_results(self, make_router):
        router = make_router(backends=1)
        router.wait_ring(1)
        client = router.client()
        submitted = client.simulate(_simulate_body(seed=4321, mode="async"))
        first = list(client.stream_job(submitted["job_id"]))
        second = list(client.stream_job(submitted["job_id"]))
        first_results = [l for l in first if l["type"] == "result"]
        second_results = [l for l in second if l["type"] == "result"]
        assert first_results == second_results
        assert second[-1]["type"] == "done"


class TestKeyContract:
    def test_router_keys_match_suite_cache_keys(self):
        """The routing contract: the router's placement key for a grid
        point is byte-identical to the cache key the backend's suite
        memoizes/persists under -- otherwise fleet-wide coalescing and
        the L2 tier silently stop lining up."""
        from repro.experiments.runner import ExperimentSuite

        app = RouterApp(RouterConfig(backends=0, attach=("127.0.0.1:9",)))
        suite = ExperimentSuite(rounds=7, seed=99)
        try:
            for case_name in ("I", "III"):
                for protocol in ("fsa", "bt"):
                    for scheme in ("crc", "qcd-16"):
                        point = GridPoint(
                            case=CASES[case_name],
                            protocol=protocol,
                            scheme=scheme,
                        )
                        assert app.point_key(7, 99, point) == cache_key(
                            suite._cache_params(
                                CASES[case_name], protocol, scheme
                            )
                        )
        finally:
            suite.close()

    def test_router_requires_a_backend(self):
        with pytest.raises(ValueError):
            RouterApp(RouterConfig(backends=0, attach=()))


class _ErrorResponse:
    """A backend's buffered non-200 answer, as ``http1.open_fetch`` has
    it after the head."""

    status = 404
    headers: dict[str, str] = {}

    async def read_body(self) -> bytes:
        return http1.json_payload(
            {"error": {"code": "not_found", "message": "no such job"}}
        )

    async def aclose(self) -> None:
        pass


class _ResetWriter:
    """A client connection the peer has reset: every write fails."""

    def write(self, data: bytes) -> None:
        raise ConnectionResetError("connection reset by peer")

    async def drain(self) -> None:
        raise ConnectionResetError("connection reset by peer")


class TestJobStreamClientHangup:
    def test_client_reset_during_error_relay_keeps_backend(
        self, monkeypatch
    ):
        """The backend answers the job stream with a 404 and the client
        resets while the router relays it: the client is gone, the
        backend is not -- it stays healthy on the ring, and nothing is
        ejected, retried or resumed."""

        async def open_fetch(*args, **kwargs):
            return _ErrorResponse()

        monkeypatch.setattr(http1, "open_fetch", open_fetch)
        obs.enable()
        app = RouterApp(RouterConfig(backends=0, attach=("127.0.0.1:9",)))
        (backend,) = app.supervisor.backends
        app.supervisor._mark(backend, HEALTHY, "probe ok")
        job = RouterJob(
            id="rjob-0",
            doc=_simulate_body(mode="async"),
            backend_id=backend.id,
            backend_job_id="job-0",
            request_id=None,
            n_points=1,
        )
        app.jobs[job.id] = job
        request = HttpRequest("GET", f"/v1/jobs/{job.id}", {}, b"")

        with pytest.raises(ClientGone):
            asyncio.run(
                app._handle_job_stream(
                    request, _ResetWriter(), RequestScope("rid-0")
                )
            )
        assert backend.state == HEALTHY
        assert backend.id in app.ring
        assert job.resumes == 0
        registry = obs.STATE.registry.to_dict()
        for family in (
            inst.ROUTER_EJECTIONS,
            inst.ROUTER_RETRIES,
            inst.ROUTER_STREAM_RESUMES,
        ):
            assert family not in registry, family


class TestSupervisorStop:
    def test_stop_ends_a_probe_loop_that_swallowed_its_cancel(
        self, monkeypatch
    ):
        """On Python 3.11 ``asyncio.wait_for`` turns a cancel that lands
        as the probe's connect fails into that failure, so the probe
        returns normally from ``stop``'s cancel.  The watch loop must end
        anyway, or the router's drain waits for it forever."""
        probes = 0
        swallowed = False

        async def probe(self, backend):
            nonlocal probes, swallowed
            probes += 1
            try:
                await asyncio.sleep(3600)
            except asyncio.CancelledError:
                if swallowed:
                    raise
                swallowed = True

        monkeypatch.setattr(BackendSupervisor, "_probe", probe)
        supervisor = BackendSupervisor(
            [Backend("ext0", "127.0.0.1", 9)],
            on_up=lambda backend: None,
            on_down=lambda backend, reason: None,
            health_interval_s=0.01,
        )

        async def start_then_stop():
            await supervisor.start()
            await asyncio.sleep(0)  # the probe is now in flight
            await asyncio.wait_for(supervisor.stop(), timeout=5)

        asyncio.run(start_then_stop())
        assert swallowed
        assert probes == 1
