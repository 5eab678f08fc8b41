"""Ablation -- scaling of the parallel Monte-Carlo executor.

The tentpole claim of the parallel runner is twofold:

1. **bit-identical results** -- sharding a grid point's pre-spawned seed
   children across a process pool changes nothing about the aggregate
   (asserted unconditionally, on any machine);
2. **wall-clock scaling** -- on a machine with >= 4 usable cores, the
   case-III FSA × QCD-8 grid point must run >= 1.5x faster with 4
   workers than serially, taking the median of three trials per
   configuration so one noisy neighbour cannot flip the verdict
   (asserted only when the cores exist; single-core CI boxes print the
   measurement and skip the speedup assertion).

A third section measures the warm-cache path: with an on-disk cache
primed, re-running the grid point must perform zero kernel invocations.
"""

from __future__ import annotations

import os
import time
from dataclasses import asdict

import pytest

from bench_util import BENCH_SEED, show
from repro.experiments.runner import ExperimentSuite

CASE, PROTOCOL, SCHEME = "III", "fsa", "qcd-8"
#: Enough rounds that each 4-worker shard carries real work (case III is
#: ~2 ms/round), so the pool's fork/IPC overhead cannot dominate.
ROUNDS = 64
WORKERS = 4
#: Median-of-N trials per configuration: shared CI runners routinely
#: steal a core for one trial; the median discards that outlier.
TRIALS = 3
#: Ideal scaling at 4 workers is 4x; 2x proved flaky on oversubscribed
#: runners, and 1.5x still rules out a serialised (broken) pool.
MIN_SPEEDUP = 1.5


def _usable_cpus() -> int:
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # non-Linux
        return os.cpu_count() or 1


def _timed_run(workers: int) -> tuple[float, object]:
    with ExperimentSuite(
        rounds=ROUNDS, seed=BENCH_SEED, workers=workers
    ) as suite:
        if workers > 1:
            # Pay pool startup before the clock starts; steady-state
            # throughput is what the ablation compares.
            suite._executor._ensure_pool()
        start = time.perf_counter()
        agg = suite.run(CASE, PROTOCOL, SCHEME)
        elapsed = time.perf_counter() - start
    return elapsed, agg


def _median_run(workers: int) -> tuple[float, object]:
    trials = [_timed_run(workers) for _ in range(TRIALS)]
    times = sorted(t for t, _ in trials)
    return times[len(times) // 2], trials[0][1]


@pytest.mark.benchmark(group="parallel-scaling")
def test_parallel_speedup_and_bit_identity(benchmark):
    serial_s, serial = _median_run(1)
    parallel_s, parallel = _median_run(WORKERS)
    speedup = serial_s / parallel_s

    show(
        f"Parallel ablation: case {CASE} {PROTOCOL}×{SCHEME}, "
        f"{ROUNDS} rounds, median of {TRIALS} trials",
        [
            {
                "workers": "1",
                "wall s": f"{serial_s:.3f}",
                "speedup": "1.00x",
            },
            {
                "workers": str(WORKERS),
                "wall s": f"{parallel_s:.3f}",
                "speedup": f"{speedup:.2f}x",
            },
        ],
    )

    # Bit-identity holds on any machine, loaded or not.
    assert asdict(parallel) == asdict(serial)

    benchmark.pedantic(
        lambda: _timed_run(WORKERS), rounds=1, iterations=1
    )
    benchmark.extra_info["serial_s"] = serial_s
    benchmark.extra_info["parallel_s"] = parallel_s
    benchmark.extra_info["speedup"] = speedup
    benchmark.extra_info["trials"] = TRIALS

    cpus = _usable_cpus()
    if cpus < WORKERS:
        pytest.skip(
            f"speedup assertion needs >= {WORKERS} usable cores, "
            f"have {cpus} (measured {speedup:.2f}x)"
        )
    assert speedup >= MIN_SPEEDUP, (
        f"expected >= {MIN_SPEEDUP}x at {WORKERS} workers, got "
        f"{speedup:.2f}x (median serial {serial_s:.3f}s vs median "
        f"parallel {parallel_s:.3f}s over {TRIALS} trials)"
    )


@pytest.mark.benchmark(group="parallel-scaling")
def test_warm_cache_skips_all_kernels(benchmark, tmp_path, monkeypatch):
    with ExperimentSuite(
        rounds=8, seed=BENCH_SEED, cache_dir=tmp_path
    ) as suite:
        cold = suite.run(CASE, PROTOCOL, SCHEME)

    from repro.experiments import parallel as par

    def boom(*args, **kwargs):
        raise AssertionError("kernel invoked despite warm cache")

    monkeypatch.setattr(par, "fsa_fast_batch", boom)
    monkeypatch.setattr(par, "bt_fast_batch", boom)

    def warm_run():
        with ExperimentSuite(
            rounds=8, seed=BENCH_SEED, cache_dir=tmp_path
        ) as suite:
            return suite.run(CASE, PROTOCOL, SCHEME)

    warm = benchmark.pedantic(warm_run, rounds=3, iterations=1)
    assert asdict(warm) == asdict(cold)
