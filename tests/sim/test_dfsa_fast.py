"""dfsa_fast_batch kernel tests: cross-validation and estimator plumbing."""

from __future__ import annotations

import statistics

import numpy as np
import pytest

from repro.bits.rng import make_rng
from repro.core.qcd import QCDDetector
from repro.core.timing import TimingModel
from repro.protocols.dfsa import DynamicFSA
from repro.protocols.estimators import (
    EomLeeEstimator,
    LowerBoundEstimator,
    MleEstimator,
    SchouteEstimator,
    VogtEstimator,
)
from repro.sim.batch import dfsa_fast_batch, fsa_fast_batch
from repro.sim.reader import Reader
from repro.tags.population import TagPopulation

N = 150


def fast(estimator, seed=0, n=N, initial=16):
    return dfsa_fast_batch(
        n,
        initial,
        estimator,
        QCDDetector(8),
        TimingModel(),
        [np.random.default_rng(seed)],
    ).runs[0]


class TestBasics:
    def test_completes(self):
        stats = fast(SchouteEstimator())
        assert stats.true_counts.single == N

    def test_zero_tags(self):
        stats = fast(SchouteEstimator(), n=0)
        assert stats.true_counts.total == 0
        assert stats.frames == 0

    def test_validation(self):
        with pytest.raises(ValueError):
            fast(SchouteEstimator(), n=-1)
        with pytest.raises(ValueError):
            fast(SchouteEstimator(), initial=0)
        with pytest.raises(ValueError):
            dfsa_fast_batch(
                5, 4, SchouteEstimator(), QCDDetector(8), TimingModel(),
                [np.random.default_rng(0)], min_frame_size=8, max_frame_size=4,
            )

    def test_reproducible(self):
        a, b = fast(SchouteEstimator(), seed=3), fast(SchouteEstimator(), seed=3)
        assert a.total_time == b.total_time

    @pytest.mark.parametrize(
        "estimator",
        [
            LowerBoundEstimator(),
            SchouteEstimator(),
            VogtEstimator(),
            EomLeeEstimator(),
            MleEstimator(),
        ],
        ids=lambda e: e.name,
    )
    def test_every_estimator_completes(self, estimator):
        stats = fast(estimator, seed=5)
        assert stats.true_counts.single == N


class TestCrossValidation:
    def test_matches_exact_dfsa_distributionally(self):
        rounds = 12
        exact_slots = []
        for i in range(rounds):
            pop = TagPopulation(N, rng=make_rng(200 + i))
            proto = DynamicFSA(initial_frame_size=16)
            Reader(QCDDetector(8)).run_inventory(pop.tags, proto)
            exact_slots.append(proto.slots_elapsed)
        fast_slots = [
            fast(SchouteEstimator(), seed=300 + i).true_counts.total
            for i in range(rounds)
        ]
        assert statistics.mean(fast_slots) == pytest.approx(
            statistics.mean(exact_slots), rel=0.15
        )

    def test_adaptation_beats_static_undersized(self):
        adaptive = fast(SchouteEstimator(), seed=7, n=600, initial=32)
        static = fsa_fast_batch(
            600, 150, QCDDetector(8), TimingModel(), [np.random.default_rng(7)]
        ).runs[0]
        assert adaptive.true_counts.total < static.true_counts.total


class TestEstimatorQuality:
    def test_better_estimators_use_fewer_slots(self):
        """Averaged over seeds, Schoute/Eom-Lee/MLE should not be worse
        than the crude lower bound."""

        def mean_slots(estimator):
            return statistics.mean(
                fast(estimator, seed=40 + s, n=400, initial=16).true_counts.total
                for s in range(8)
            )

        lb = mean_slots(LowerBoundEstimator())
        sch = mean_slots(SchouteEstimator())
        eom = mean_slots(EomLeeEstimator())
        assert sch <= lb * 1.02
        assert eom <= lb * 1.02
