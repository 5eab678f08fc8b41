"""Fault injection against the live fleet: kill, drain, resume.

The claims under test (the PR's acceptance criteria):

* **SIGKILL mid-request** -- a backend killed while computing is ejected
  from the ring and the in-flight request retried on the new owner of
  its key: the client sees a 200, never a 5xx;
* **SIGKILL mid-NDJSON-stream** -- an async job's home backend killed
  mid-stream: the router resubmits the job to the new owner and resumes
  the client's stream without duplicating or losing result lines;
* **SIGTERM drain** -- a draining backend's ``503 draining`` triggers
  re-routing inside the router, not a client-visible error;
* **respawn** -- a killed spawned backend is respawned and rejoins the
  ring.

Timing discipline: backends run with ``--compute-floor`` so "mid-request"
is a deterministic window, not a race the test usually wins.
"""

from __future__ import annotations

import json
import threading
import time
from concurrent.futures import ThreadPoolExecutor

import pytest

from repro.experiments.config import CASES
from repro.serve.protocol import GridPoint

from tests.serve.test_router import _metric_value, _scrape, _simulate_body

pytestmark = pytest.mark.slow


def _owner_of(router, *, rounds: int, seed: int, body: dict) -> str:
    """The backend currently owning the request's (single) grid point."""
    point = GridPoint(
        case=CASES[body["cases"][0]],
        protocol=body["protocols"][0],
        scheme=body["schemes"][0],
    )
    key = router.app.point_key(rounds, seed, point)
    return router.app.ring.owner(key)


class TestSigkill:
    def test_kill_mid_request_retries_on_new_owner(self, make_router):
        router = make_router(backends=2, compute_floor_s=1.0)
        router.wait_ring(2)
        body = _simulate_body(seed=7001)
        owner = _owner_of(router, rounds=2, seed=7001, body=body)

        outcome: dict = {}

        def fire():
            client = router.client(retries=0, timeout_s=60.0)
            try:
                status, _, payload = client.request(
                    "POST", "/v1/simulate", body
                )
                outcome["status"] = status
                outcome["doc"] = json.loads(payload)
            except Exception as exc:  # noqa: BLE001 - the assert target
                outcome["error"] = repr(exc)

        thread = threading.Thread(target=fire)
        thread.start()
        # The 1s compute floor holds the request on the owner; kill it
        # squarely inside that window.
        time.sleep(0.4)
        router.kill_backend(owner)
        thread.join(timeout=60)
        assert not thread.is_alive()

        assert outcome.get("error") is None, outcome["error"]
        assert outcome["status"] == 200
        doc = outcome["doc"]
        assert doc["state"] == "done" and len(doc["results"]) == 1
        # The survivor, not the corpse, served it.
        (served,) = doc["served_by"].keys()
        assert served != owner
        metrics = _scrape(router.url)
        assert _metric_value(metrics, "repro_router_retries_total") >= 1
        assert (
            _metric_value(
                metrics, "repro_router_ejections_total",
                reason="unreachable",
            )
            >= 1
        )

    def test_kill_under_concurrent_load_zero_5xx(self, make_router):
        """A backend dies while a burst is in flight: every request is
        answered 200 (re-routed) or 429 (honestly shed) -- never 5xx,
        never a client-visible transport error."""
        router = make_router(backends=2, compute_floor_s=0.2)
        router.wait_ring(2)

        def fire(i):
            client = router.client(retries=0, timeout_s=60.0)
            try:
                status, _, _ = client.request(
                    "POST", "/v1/simulate",
                    _simulate_body(seed=7100 + i),
                )
                return status
            except Exception as exc:  # noqa: BLE001 - the assert target
                return repr(exc)

        with ThreadPoolExecutor(max_workers=8) as pool:
            futures = [pool.submit(fire, i) for i in range(16)]
            time.sleep(0.35)  # burst in flight on both backends
            router.kill_backend("b1")
            statuses = [f.result() for f in futures]
        bad = [s for s in statuses if s not in (200, 429)]
        assert not bad, f"client-visible failures under kill: {bad}"
        assert statuses.count(200) >= 1

    def test_kill_mid_stream_resumes_exactly_once(self, make_router):
        """The home backend dies mid-NDJSON-stream: the router re-homes
        the job and the client's single stream still delivers every
        point exactly once, ending in a clean ``done``."""
        router = make_router(backends=2, compute_floor_s=0.5)
        router.wait_ring(2)
        client = router.client(timeout_s=120.0)
        submitted = client.simulate(_simulate_body(
            cases=["I", "II"], schemes=["crc", "qcd-8"],
            seed=7200, mode="async",
        ))
        job_id = submitted["job_id"]
        home = router.app.jobs[job_id].backend_id

        lines: list[dict] = []
        first_result = threading.Event()
        stream_error: list[str] = []

        def consume():
            try:
                for line in client.stream_job(job_id):
                    lines.append(line)
                    if line["type"] == "result":
                        first_result.set()
            except Exception as exc:  # noqa: BLE001 - the assert target
                stream_error.append(repr(exc))
            finally:
                first_result.set()

        thread = threading.Thread(target=consume)
        thread.start()
        assert first_result.wait(60), "no first result within 60s"
        # ~3 of 4 points still pending (0.5s floor each): kill the home
        # backend squarely mid-stream.
        router.kill_backend(home)
        thread.join(timeout=120)
        assert not thread.is_alive()

        assert not stream_error, stream_error
        kinds = [line["type"] for line in lines]
        assert kinds[0] == "job" and kinds[-1] == "done"
        assert lines[-1]["state"] == "done"
        points = [
            json.dumps(line["point"], sort_keys=True)
            for line in lines
            if line["type"] == "result"
        ]
        assert len(points) == 4, f"lost results: {kinds}"
        assert len(set(points)) == 4, "duplicated results after resume"
        assert (
            _metric_value(
                _scrape(router.url), "repro_router_stream_resumes_total"
            )
            >= 1
        )

    def test_killed_backend_respawns_and_rejoins(self, make_router):
        router = make_router(backends=2)
        router.wait_ring(2)
        router.kill_backend("b0")
        # The ring dips to 1 (ejection) then returns to 2 (respawn).
        deadline = time.monotonic() + 30
        while time.monotonic() < deadline and len(router.app.ring) == 2:
            time.sleep(0.02)
        router.wait_ring(2, timeout=60)
        assert router.backend("b0").restarts == 1
        doc = router.client().simulate(_simulate_body(seed=7300))
        assert doc["state"] == "done"


class TestSigtermDrain:
    def test_drain_reroutes_without_client_errors(self, make_router):
        """SIGTERM one backend, then hit the router for keys across the
        whole ring: requests owned by the draining backend are re-routed
        off its ``503 draining`` answer -- every client call returns 200.
        """
        router = make_router(backends=2, drain_grace_s=10.0)
        router.wait_ring(2)
        router.terminate_backend("b0")

        def fire(i):
            client = router.client(retries=0, timeout_s=60.0)
            try:
                status, _, _ = client.request(
                    "POST", "/v1/simulate",
                    _simulate_body(seed=7400 + i),
                )
                return status
            except Exception as exc:  # noqa: BLE001 - the assert target
                return repr(exc)

        with ThreadPoolExecutor(max_workers=6) as pool:
            statuses = list(pool.map(fire, range(12)))
        assert statuses == [200] * 12, statuses

    def test_router_drain_rejects_new_work_typed(self, make_router):
        router = make_router(backends=1)
        router.wait_ring(1)
        assert router.app is not None and router.loop is not None
        router.loop.call_soon_threadsafe(router.app.begin_drain)
        # Every request in the drain window gets a typed 503 with a
        # Retry-After hint, or a prompt refusal or close once the listener
        # is shut.  A connection left open until the client gives up (a
        # timeout) fails.
        client = router.client(retries=0, timeout_s=10.0)
        deadline = time.monotonic() + 10
        answered = False
        while time.monotonic() < deadline:
            try:
                status, headers, payload = client.request(
                    "POST", "/v1/simulate", _simulate_body(seed=7500)
                )
            except ConnectionError:
                answered = True  # refused or closed: the drain shut us out
                break
            if status == 503:
                doc = json.loads(payload)
                assert doc["error"]["code"] == "draining"
                lower = {k.lower(): v for k, v in headers.items()}
                assert "retry-after" in lower
                answered = True
                break
            time.sleep(0.05)
        assert answered
