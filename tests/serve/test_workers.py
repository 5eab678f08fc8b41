"""Worker-pool and engine tests.

The pool tests swap the real :class:`SimulationEngine` for a gated fake
so concurrency windows are deterministic: a barrier holds the leader's
computation open until every duplicate request has been admitted, which
pins the coalesce count exactly.  The engine tests run the real
simulation stack at tiny round counts.
"""

from __future__ import annotations

import asyncio
import threading

import pytest

from repro import obs
from repro.obs import instruments as _inst
from repro.serve.coalesce import Coalescer
from repro.serve.protocol import parse_simulate_request
from repro.serve.queue import AdmissionQueue
from repro.serve.workers import (
    JOB_DONE,
    JOB_FAILED,
    Job,
    SimulationEngine,
    WorkItem,
    WorkerPool,
    new_job_id,
)


def make_job(
    *, schemes=("crc",), rounds=2, seed=2010, client="tester", cases=("I",)
) -> Job:
    return Job(
        parse_simulate_request(
            {
                "version": 1,
                "cases": list(cases),
                "protocols": ["fsa"],
                "schemes": list(schemes),
                "rounds": rounds,
                "seed": seed,
                "client": client,
            }
        )
    )


class GatedEngine:
    """Engine stand-in: compute_point blocks until released."""

    def __init__(self) -> None:
        self.release = threading.Event()
        self.calls: list[str] = []
        self._lock = threading.Lock()
        self.point_seconds_ewma = 0.01
        self.fail_keys: set[str] = set()

    def key_for(self, rounds, seed, point) -> str:
        return f"{rounds}:{seed}:{point.case.name}:{point.protocol}:{point.scheme}"

    def compute_point(self, rounds, seed, point):
        key = self.key_for(rounds, seed, point)
        with self._lock:
            self.calls.append(key)
        assert self.release.wait(20), "gate never released"
        if key in self.fail_keys:
            raise RuntimeError(f"injected failure for {key}")
        return {"throughput": 0.5, "rounds": rounds}, "computed"

    def close(self) -> None:
        pass


def run_pool_scenario(scenario, concurrency: int = 8):
    """Run an async scenario(queue, pool, engine) with a live pool."""

    async def main():
        queue = AdmissionQueue(capacity=64, per_client=64)
        engine = GatedEngine()
        pool = WorkerPool(queue, Coalescer(), engine, concurrency=concurrency)
        await pool.start()
        try:
            return await asyncio.wait_for(
                scenario(queue, pool, engine), timeout=30
            )
        finally:
            queue.close()
            await pool.join()

    return asyncio.run(main())


class TestWorkerPool:
    def test_identical_points_compute_once(self):
        """N concurrent requests for one grid point -> one computation."""

        async def scenario(queue, pool, engine):
            jobs = [make_job(client=f"c{i}") for i in range(5)]
            for job in jobs:
                queue.put_batch(
                    [WorkItem(job=job, point=p) for p in job.request.points],
                    client=job.request.client,
                    priority=5,
                )
            # Wait until the leader is inside compute_point and every
            # duplicate has reached the coalescer, then release the gate.
            while pool.in_flight < len(jobs) or not engine.calls:
                await asyncio.sleep(0.005)
            engine.release.set()
            await asyncio.gather(*(j.wait_done() for j in jobs))
            return jobs

        jobs = run_pool_scenario(scenario)
        assert all(j.state == JOB_DONE for j in jobs)
        # Exactly one computed, the other four coalesced.
        sources = sorted(r.source for j in jobs for r in j.results)
        assert sources == ["coalesced"] * 4 + ["computed"]

    def test_distinct_points_all_compute(self):
        async def scenario(queue, pool, engine):
            engine.release.set()
            job = make_job(schemes=("crc", "qcd-4", "qcd-8"))
            queue.put_batch(
                [WorkItem(job=job, point=p) for p in job.request.points],
                client="tester",
                priority=5,
            )
            await job.wait_done()
            return job, list(engine.calls)

        job, calls = run_pool_scenario(scenario)
        assert job.state == JOB_DONE
        assert len(calls) == 3 and len(set(calls)) == 3
        assert [r.source for r in job.results] == ["computed"] * 3

    def test_leader_failure_fails_every_coalesced_job(self):
        async def scenario(queue, pool, engine):
            jobs = [make_job(client=f"c{i}") for i in range(3)]
            engine.fail_keys.add(
                engine.key_for(2, 2010, jobs[0].request.points[0])
            )
            for job in jobs:
                queue.put_batch(
                    [WorkItem(job=job, point=p) for p in job.request.points],
                    client=job.request.client,
                    priority=5,
                )
            while not engine.calls:
                await asyncio.sleep(0.005)
            await asyncio.sleep(0.05)
            engine.release.set()
            await asyncio.gather(*(j.wait_done() for j in jobs))
            return jobs

        jobs = run_pool_scenario(scenario)
        assert all(j.state == JOB_FAILED for j in jobs)
        assert all("injected failure" in (j.error or "") for j in jobs)

    def test_sibling_points_skipped_after_job_fails(self):
        async def scenario(queue, pool, engine):
            job = make_job(schemes=("crc", "qcd-2", "qcd-3", "qcd-4"))
            engine.fail_keys.update(
                engine.key_for(2, 2010, p) for p in job.request.points
            )
            engine.release.set()
            queue.put_batch(
                [WorkItem(job=job, point=p) for p in job.request.points],
                client="tester",
                priority=5,
            )
            await job.wait_done()
            await asyncio.sleep(0.05)  # let any stragglers run
            return job, list(engine.calls)

        # One worker: the first point fails the job, the remaining three
        # queued siblings are skipped without touching the engine.
        job, calls = run_pool_scenario(scenario, concurrency=1)
        assert job.state == JOB_FAILED
        assert len(calls) == 1

    def test_coalesce_hit_counter(self):
        obs.enable()

        async def scenario(queue, pool, engine):
            jobs = [make_job(client=f"c{i}") for i in range(4)]
            for job in jobs:
                queue.put_batch(
                    [WorkItem(job=job, point=p) for p in job.request.points],
                    client=job.request.client,
                    priority=5,
                )
            while pool.in_flight < len(jobs) or not engine.calls:
                await asyncio.sleep(0.005)
            engine.release.set()
            await asyncio.gather(*(j.wait_done() for j in jobs))

        run_pool_scenario(scenario)
        hits = obs.STATE.registry.counter_totals(_inst.SERVE_COALESCE_HITS)
        assert hits == 3


class TestJobStream:
    def test_stream_replays_then_follows(self):
        async def scenario():
            job = make_job()
            point = job.request.points[0]
            from repro.serve.workers import PointResult

            job.publish(PointResult(point=point, stats={"a": 1}, source="memo"))

            collected = []

            async def consume():
                async for result in job.stream():
                    collected.append(result.stats["a"])

            task = asyncio.create_task(consume())
            await asyncio.sleep(0.01)
            job.publish(PointResult(point=point, stats={"a": 2}, source="memo"))
            job.finish(JOB_DONE)
            await asyncio.wait_for(task, timeout=5)
            return collected

        assert asyncio.run(scenario()) == [1, 2]

    def test_stream_of_finished_job_replays_everything(self):
        async def scenario():
            job = make_job()
            point = job.request.points[0]
            from repro.serve.workers import PointResult

            job.publish(PointResult(point=point, stats={"a": 1}, source="memo"))
            job.finish(JOB_DONE)
            return [r.stats["a"] async for r in job.stream()]

        assert asyncio.run(scenario()) == [1]


class TestSimulationEngine:
    def test_results_identical_to_experiment_suite(self, tmp_path):
        from dataclasses import asdict

        from repro.experiments.runner import ExperimentSuite

        engine = SimulationEngine(mc_workers=1, cache_dir=tmp_path / "cache")
        try:
            job = make_job(rounds=3, seed=77, schemes=("qcd-8",))
            point = job.request.points[0]
            stats, source = engine.compute_point(3, 77, point)
            assert source == "computed"
            with ExperimentSuite(rounds=3, seed=77) as suite:
                expected = asdict(suite.run("I", "fsa", "qcd-8"))
            assert stats == expected
            # Second call hits the in-memory memo; a fresh engine over the
            # same cache dir hits the disk cache -- all field-identical.
            again, source2 = engine.compute_point(3, 77, point)
            assert (again, source2) == (expected, "memo")
        finally:
            engine.close()
        fresh = SimulationEngine(mc_workers=1, cache_dir=tmp_path / "cache")
        try:
            cached, source3 = fresh.compute_point(3, 77, point)
            assert (cached, source3) == (expected, "cache")
        finally:
            fresh.close()

    def test_fresh_seeds_do_not_rescan_the_cache_directory(
        self, tmp_path, monkeypatch
    ):
        """Every new (rounds, seed) builds a suite over the shared cache
        directory; opening it must not scan the directory each time, or
        a long-running server slows down as its cache grows."""
        import os

        cache_dir = tmp_path / "cache"
        scans: list[object] = []
        real_scandir = os.scandir

        def counting_scandir(path="."):
            if isinstance(path, (str, os.PathLike)) and os.path.realpath(
                path
            ) == os.path.realpath(cache_dir):
                scans.append(path)
            return real_scandir(path)

        monkeypatch.setattr(os, "scandir", counting_scandir)
        engine = SimulationEngine(mc_workers=1, cache_dir=cache_dir)
        try:
            point = make_job(rounds=1).request.points[0]
            engine.compute_point(1, 0, point)
            after_one = len(scans)
            for seed in range(1, 50):
                engine.compute_point(1, seed, point)
            assert len(scans) == after_one
        finally:
            engine.close()

    def test_key_for_matches_result_cache_hash(self):
        from repro.experiments.cache import cache_key
        from repro.experiments.runner import ExperimentSuite

        engine = SimulationEngine(mc_workers=1)
        try:
            job = make_job(rounds=2, seed=5)
            point = job.request.points[0]
            key = engine.key_for(2, 5, point)
            with ExperimentSuite(rounds=2, seed=5) as suite:
                expected = cache_key(
                    suite._cache_params(point.case, point.protocol, point.scheme)
                )
            assert key == expected
        finally:
            engine.close()

    def test_suite_table_is_bounded(self):
        from repro.serve import workers as workers_mod

        engine = SimulationEngine(mc_workers=1)
        try:
            for seed in range(workers_mod.MAX_SUITES + 10):
                engine._suite(1, seed)
            assert len(engine._suites) == workers_mod.MAX_SUITES
        finally:
            engine.close()

    def test_compute_floor_enforced(self):
        import time

        engine = SimulationEngine(mc_workers=1, compute_floor_s=0.2)
        try:
            job = make_job(rounds=1, seed=9)
            t0 = time.perf_counter()
            _, source = engine.compute_point(1, 9, job.request.points[0])
            elapsed = time.perf_counter() - t0
            assert source == "computed"
            assert elapsed >= 0.2
        finally:
            engine.close()

    def test_new_job_ids_are_unique(self):
        ids = {new_job_id() for _ in range(100)}
        assert len(ids) == 100
        assert all(i.startswith("job-") for i in ids)
