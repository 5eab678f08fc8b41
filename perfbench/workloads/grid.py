"""``grid``: the paper's evaluation grid, in process, every point cold.

Cases I-IV x {fsa, bt} x {crc, qcd-4, qcd-8, qcd-16} (32 points) at
:data:`ROUNDS` rounds through ``ExperimentSuite(workers=1,
cache_dir=<fresh>)``.  Each pass uses a new suite seed and a new cache
directory, so every point runs the kernels and the result cache is only
written.  Nearly all the time is in ``repro.sim.batch``; case IV
dominates.
"""

from __future__ import annotations

import hashlib
import json
import math
import time
from dataclasses import asdict

from repro.experiments.config import CASES
from repro.experiments.parallel import SerialExecutor
from repro.experiments.runner import ExperimentSuite
from repro.sim.export import nan_to_none

from perfbench.context import Context, Result, median_setup, probe_setup
from perfbench.hostspeed import HostSpeed
from perfbench.procs import BenchError
from perfbench.stats import mean, quiet_cycle_metrics, ratio
from perfbench.tracing import NullTracer

ROUNDS = 10
POINTS = [
    (case, protocol, scheme)
    for case in ("I", "II", "III", "IV")
    for protocol in ("fsa", "bt")
    for scheme in ("crc", "qcd-4", "qcd-8", "qcd-16")
]
TAGS_PER_PASS = sum(CASES[case].n_tags * ROUNDS for case, _, _ in POINTS)
#: Host speed probes before each pass (~1 s): about 60 in a 20 s run.
SPEED_PROBES = 4

LAYERS = {
    "experiments.parallel.busy_s",
    "sim.batch.fsa.ms_per_round",
    "sim.batch.bt.ms_per_round",
    "sim.batch.slots",
    "sim.batch.single_ratio",
    "experiments.runner.self_ms",
    "experiments.cache.store_ms",
    "experiments.cache.stores",
    "experiments.cache.bytes_written",
    "trace.overhead_ratio",
}


def setup(scratch) -> ExperimentSuite:
    return ExperimentSuite(rounds=ROUNDS, seed=0, workers=1, cache_dir=scratch)


def check_point(point, stats) -> str | None:
    """The invariants every grid point must hold; a message if not."""
    case_name, protocol, scheme = point
    case = CASES[case_name]
    if stats.rounds != ROUNDS or stats.n_tags != case.n_tags:
        return "wrong rounds or n_tags"
    if stats.single != case.n_tags:
        return f"identified {stats.single} of {case.n_tags} tags"
    if protocol == "fsa":
        expected = stats.frames * case.frame_size
        if not math.isclose(stats.total_slots, expected, rel_tol=1e-9):
            return f"{stats.total_slots} slots in {stats.frames} frames"
    elif not math.isclose(
        stats.idle + stats.single, stats.collided + 1, rel_tol=1e-9
    ):
        return "binary tree leaves != internal nodes + 1"
    if scheme == "crc" and (stats.accuracy != 1.0 or stats.missed_collisions):
        return "CRC-CD misclassified a slot"
    if not 0.0 <= stats.accuracy <= 1.0 or not 0.0 < stats.utilization <= 1.0:
        return "accuracy or utilization out of range"
    return None


class TimingExecutor(SerialExecutor):
    """The serial executor, with a span around each kernel call and exact
    counts of the slots its rounds ran."""

    def __init__(self, tracer) -> None:
        self.tracer = tracer
        self.slots = 0
        self.single = 0

    def run(self, job):
        with self.tracer.span(
            "experiments.parallel.run",
            protocol=job.protocol,
            rounds=len(job.children),
        ):
            runs = super().run(job)
        for r in runs:
            counts = r.true_counts
            self.slots += counts.idle + counts.single + counts.collided
            self.single += counts.single
        return runs


class TimedCache:
    """Wraps the suite's result cache to time and size every store."""

    def __init__(self, inner, tracer) -> None:
        self.inner = inner
        self.tracer = tracer
        self.bytes_written = 0

    def load(self, params):
        return self.inner.load(params)

    def store(self, params, stats):
        with self.tracer.span("experiments.cache.store"):
            path = self.inner.store(params, stats)
        self.bytes_written += path.stat().st_size
        return path


def run_passes(ctx: Context, tracer, passes: int | None,
               deadline: float | None, speed: HostSpeed | None = None):
    """Run whole grid passes until ``passes`` are done, or ``deadline`` has
    passed with at least ``ctx.min_ops()`` points run.  ``speed``, if
    given, is sampled before each pass.

    Returns (latencies_s, failures, pass digests, pass walls, executor,
    caches)."""
    latencies: list[float] = []
    failures: list[str] = []
    digests: list[str] = []
    walls: list[float] = []
    executor = TimingExecutor(tracer)
    caches = []
    while (len(walls) < passes if passes is not None
           else time.perf_counter() < deadline
           or len(latencies) < ctx.min_ops()):
        if speed is not None:
            speed.sample(SPEED_PROBES)
        k = len(walls)
        t_pass = time.perf_counter()
        suite = ExperimentSuite(
            rounds=ROUNDS,
            seed=ctx.sub_seed("grid-pass", k),
            workers=1,
            cache_dir=ctx.fresh_dir(f"grid-pass{k}"),
            executor=executor,
        )
        if not hasattr(suite, "_disk"):
            raise BenchError("ExperimentSuite no longer exposes _disk")
        suite._disk = TimedCache(suite._disk, tracer)
        caches.append(suite._disk)
        digest = hashlib.sha256()
        for point in POINTS:
            t0 = time.perf_counter()
            with tracer.span("experiments.runner.run", case=point[0],
                             protocol=point[1], scheme=point[2]):
                stats = suite.run(*point)
            latencies.append(time.perf_counter() - t0)
            problem = check_point(point, stats)
            if problem is not None:
                failures.append(f"pass {k} {point}: {problem}")
            digest.update(
                json.dumps(nan_to_none(asdict(stats)), sort_keys=True).encode()
            )
        suite.close()
        walls.append(time.perf_counter() - t_pass)
        digests.append(digest.hexdigest()[:16])
    return latencies, failures, digests, walls, executor, caches


def warm_up(ctx: Context) -> None:
    """Case I once per protocol and scheme, untimed: the kernels import
    and allocate lazily on first use."""
    with setup(ctx.fresh_dir("grid-warmup")) as suite:
        suite.grid(cases=("I",))


def run(ctx: Context) -> Result:
    lines: list[str] = []
    warm_up(ctx)
    if not ctx.trace:
        speed = HostSpeed()
        setup_s = median_setup(lambda: probe_setup(ctx, "grid"), speed)
        deadline = time.perf_counter() + ctx.seconds
        lat, failures, digests, _, _, _ = run_passes(
            ctx, NullTracer(), None, deadline, speed
        )
        n = len(POINTS)
        cycles = [lat[i:i + n] for i in range(0, len(lat), n)]
        metrics = speed.apply({
            "setup_s": setup_s, **quiet_cycle_metrics(cycles, TAGS_PER_PASS)
        }, lines)
    else:
        units = ctx.trace_units()
        lat_u, fail_u, dig_u, walls_u, _, _ = run_passes(
            ctx, NullTracer(), units, None
        )
        lat, failures, digests, walls, executor, caches = run_passes(
            ctx, ctx.tracer, units, None
        )
        failures = fail_u + failures
        if dig_u != digests:
            failures.append("traced pass digests differ from untraced ones")
        tracer = ctx.tracer
        kernel = tracer.named("experiments.parallel.run")

        def per_round_ms(protocol: str) -> float:
            spans = [s for s in kernel if s.attrs["protocol"] == protocol]
            rounds = sum(s.attrs["rounds"] for s in spans)
            return ratio(sum(s.duration for s in spans) * 1e3, rounds)

        stores = tracer.named("experiments.cache.store")
        metrics = {
            "experiments.parallel.busy_s": sum(s.duration for s in kernel),
            "sim.batch.fsa.ms_per_round": per_round_ms("fsa"),
            "sim.batch.bt.ms_per_round": per_round_ms("bt"),
            "sim.batch.slots": float(executor.slots),
            "sim.batch.single_ratio": ratio(executor.single, executor.slots),
            "experiments.runner.self_ms": mean(
                [tracer.self_time(s) * 1e3
                 for s in tracer.named("experiments.runner.run")]
            ),
            "experiments.cache.store_ms": mean(
                [s.duration * 1e3 for s in stores]
            ),
            "experiments.cache.stores": float(len(stores)),
            "experiments.cache.bytes_written": float(
                sum(c.bytes_written for c in caches)
            ),
            "trace.overhead_ratio": sum(walls) / sum(walls_u),
        }
        lat = lat_u + lat
    for i, d in enumerate(digests):
        lines.append(f"grid pass {i} digest {d}")
    lines.extend(failures)
    return Result(
        attempted=len(lat), failed=len(failures), metrics=metrics, lines=lines
    )
