"""Ablation -- cardinality estimators driving dynamic FSA at scale.

DFSA's slot efficiency is exactly as good as its backlog estimator.  This
bench races the five estimators over a 5000-tag inventory (vectorized
kernel) from a deliberately bad initial frame, reporting total slots,
frames, and airtime under QCD -- and checks the expected quality ordering:
the crude lower bound over-collides; Schoute fixes the ρ = 1 case;
Eom-Lee/MLE/Vogt stay calibrated off-optimum.
"""

from __future__ import annotations

import statistics

import numpy as np
import pytest

from bench_util import show
from repro.core.qcd import QCDDetector
from repro.core.timing import TimingModel
from repro.protocols.estimators import (
    EomLeeEstimator,
    LowerBoundEstimator,
    MleEstimator,
    SchouteEstimator,
    VogtEstimator,
)
from repro.sim.batch import dfsa_fast_batch

N = 5000
INITIAL = 64
SEEDS = range(5)

ESTIMATORS = {
    "lower-bound": LowerBoundEstimator(),
    "schoute": SchouteEstimator(),
    "eom-lee": EomLeeEstimator(),
    "vogt": VogtEstimator(),
    "mle": MleEstimator(),
}


def race(estimator):
    slots, frames, times = [], [], []
    runs = dfsa_fast_batch(
        N,
        INITIAL,
        estimator,
        QCDDetector(8),
        TimingModel(),
        [np.random.default_rng(1000 + seed) for seed in SEEDS],
    ).runs
    for stats in runs:
        assert stats.true_counts.single == N
        slots.append(stats.true_counts.total)
        frames.append(stats.frames)
        times.append(stats.total_time)
    return (
        statistics.mean(slots),
        statistics.mean(frames),
        statistics.mean(times),
    )


@pytest.mark.benchmark(group="estimators")
def test_estimator_race(benchmark):
    def compute():
        return {name: race(est) for name, est in ESTIMATORS.items()}

    results = benchmark.pedantic(compute, rounds=1, iterations=1)
    rows = [
        {
            "estimator": name,
            "slots": f"{s:,.0f}",
            "frames": f"{f:.1f}",
            "airtime (µs)": f"{t:,.0f}",
            "slots/tag": f"{s / N:.2f}",
        }
        for name, (s, f, t) in results.items()
    ]
    show(f"DFSA estimator race, n={N}, initial frame {INITIAL}", rows)
    # Every estimator lands in the e·n ballpark (Lemma 1's floor is
    # ~2.72 slots/tag for throughput-optimal FSA).
    for name, (s, _, _) in results.items():
        assert 2.5 * N < s < 4.5 * N, name
    # The refined estimators must not lose to the crude lower bound.
    lb = results["lower-bound"][0]
    for name in ("schoute", "eom-lee", "mle", "vogt"):
        assert results[name][0] <= lb * 1.03, name


@pytest.mark.benchmark(group="estimators")
def test_estimator_robust_to_bad_start(benchmark):
    """Starting 300x undersized (frame 16 vs 5000 tags) must still
    converge in a handful of frames thanks to geometric frame growth."""

    def compute():
        return dfsa_fast_batch(
            N,
            16,
            EomLeeEstimator(),
            QCDDetector(8),
            TimingModel(),
            [np.random.default_rng(77)],
        ).runs[0]

    stats = benchmark.pedantic(compute, rounds=1, iterations=1)
    assert stats.true_counts.single == N
    assert stats.frames < 40
