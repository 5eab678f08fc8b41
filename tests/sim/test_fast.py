"""Cross-validation of the vectorized kernels against the exact reader.

The kernels (:mod:`repro.sim.batch`) simulate the same stochastic process
with different random streams, so the comparison is distributional: means
over a batch of rounds must agree within Monte-Carlo tolerance.  A few
single-inventory edge cases follow; bit-exactness lives in
``tests/sim/test_batch.py``.
"""

from __future__ import annotations

import statistics

import numpy as np
import pytest

from repro.core.crc_cd import CRCCDDetector
from repro.core.ideal import IdealDetector
from repro.core.qcd import QCDDetector
from repro.core.timing import TimingModel
from repro.protocols.bt import BinaryTree
from repro.protocols.fsa import FramedSlottedAloha
from repro.sim.batch import bt_fast_batch, fsa_fast_batch
from repro.sim.reader import Reader
from repro.tags.population import TagPopulation
from repro.bits.rng import make_rng

ROUNDS = 12
N, F = 120, 64


def exact_fsa_batch(detector_factory, timing):
    out = []
    for i in range(ROUNDS):
        pop = TagPopulation(N, rng=make_rng(100 + i))
        res = Reader(detector_factory(), timing).run_inventory(
            pop.tags, FramedSlottedAloha(F)
        )
        out.append(res.stats)
    return out


def fast_fsa_batch(detector, timing):
    rngs = [np.random.default_rng(200 + i) for i in range(ROUNDS)]
    return fsa_fast_batch(N, F, detector, timing, rngs).runs


def exact_bt_batch(detector_factory, timing):
    out = []
    for i in range(ROUNDS):
        pop = TagPopulation(N, rng=make_rng(300 + i))
        res = Reader(detector_factory(), timing).run_inventory(
            pop.tags, BinaryTree()
        )
        out.append(res.stats)
    return out


def fast_bt_batch(detector, timing):
    rngs = [np.random.default_rng(400 + i) for i in range(ROUNDS)]
    return bt_fast_batch(N, detector, timing, rngs).runs


def fsa_one(n, frame, detector, timing, seed, **kw):
    """One inventory: a batch of one stream."""
    rngs = [np.random.default_rng(seed)]
    return fsa_fast_batch(n, frame, detector, timing, rngs, **kw).runs[0]


def bt_one(n, detector, timing, seed):
    rngs = [np.random.default_rng(seed)]
    return bt_fast_batch(n, detector, timing, rngs).runs[0]


def mean(stats, f):
    return statistics.mean(f(s) for s in stats)


@pytest.fixture(scope="module")
def tm():
    return TimingModel()


class TestFsaCrossValidation:
    def test_slot_counts_match(self, tm):
        exact = exact_fsa_batch(lambda: QCDDetector(8), tm)
        fast = fast_fsa_batch(QCDDetector(8), tm)
        for field in ("idle", "single", "collided"):
            e = mean(exact, lambda s: getattr(s.true_counts, field))
            f = mean(fast, lambda s: getattr(s.true_counts, field))
            assert f == pytest.approx(e, rel=0.15), field

    def test_total_time_matches(self, tm):
        exact = exact_fsa_batch(lambda: QCDDetector(8), tm)
        fast = fast_fsa_batch(QCDDetector(8), tm)
        assert mean(fast, lambda s: s.total_time) == pytest.approx(
            mean(exact, lambda s: s.total_time), rel=0.1
        )

    def test_delay_matches(self, tm):
        exact = exact_fsa_batch(lambda: QCDDetector(8), tm)
        fast = fast_fsa_batch(QCDDetector(8), tm)
        assert mean(fast, lambda s: s.delay.mean) == pytest.approx(
            mean(exact, lambda s: s.delay.mean), rel=0.15
        )

    def test_crc_detector_time(self, tm):
        exact = exact_fsa_batch(lambda: CRCCDDetector(id_bits=64), tm)
        fast = fast_fsa_batch(CRCCDDetector(id_bits=64), tm)
        assert mean(fast, lambda s: s.total_time) == pytest.approx(
            mean(exact, lambda s: s.total_time), rel=0.1
        )

    def test_accuracy_matches_at_low_strength(self, tm):
        """l = 2 misses often; the kernels must reproduce the rate."""
        exact = exact_fsa_batch(lambda: QCDDetector(2), tm)
        fast = fast_fsa_batch(QCDDetector(2), tm)
        e = mean(exact, lambda s: s.accuracy)
        f = mean(fast, lambda s: s.accuracy)
        assert f == pytest.approx(e, abs=0.05)


class TestBtCrossValidation:
    def test_slot_counts_match(self, tm):
        exact = exact_bt_batch(lambda: QCDDetector(8), tm)
        fast = fast_bt_batch(QCDDetector(8), tm)
        for field in ("idle", "single", "collided"):
            e = mean(exact, lambda s: getattr(s.true_counts, field))
            f = mean(fast, lambda s: getattr(s.true_counts, field))
            assert f == pytest.approx(e, rel=0.15), field

    def test_total_time_matches(self, tm):
        exact = exact_bt_batch(lambda: QCDDetector(8), tm)
        fast = fast_bt_batch(QCDDetector(8), tm)
        assert mean(fast, lambda s: s.total_time) == pytest.approx(
            mean(exact, lambda s: s.total_time), rel=0.1
        )

    def test_singles_exact(self, tm):
        for s in fast_bt_batch(QCDDetector(8), tm):
            assert s.true_counts.single == N


class TestKernelEdgeCases:
    def test_zero_tags_fsa(self, tm):
        stats = fsa_one(0, 16, QCDDetector(8), tm, 0)
        # Only the confirmation frame runs.
        assert stats.true_counts.single == 0
        assert stats.true_counts.idle == 16

    def test_zero_tags_fsa_no_confirm(self, tm):
        stats = fsa_one(0, 16, QCDDetector(8), tm, 0, confirm_frame=False)
        assert stats.true_counts.total == 0

    def test_zero_tags_bt(self, tm):
        stats = bt_one(0, QCDDetector(8), tm, 0)
        assert stats.true_counts.total == 0

    def test_one_tag_bt(self, tm):
        stats = bt_one(1, QCDDetector(8), tm, 0)
        assert stats.true_counts.total == 1
        assert stats.true_counts.single == 1

    def test_ideal_detector_never_misses(self, tm):
        stats = fsa_one(200, 64, IdealDetector(64), tm, 1)
        assert stats.missed_collisions == 0
        assert stats.accuracy == 1.0

    def test_generic_detector_fallback(self, tm):
        """A detector outside the known three goes through the generic
        miss-probability path."""
        from repro.core.detector import CollisionDetector, SlotOutcome, SlotType
        from repro.bits.bitvec import BitVector

        class Flaky(CollisionDetector):
            name = "flaky"
            needs_id_phase = False

            @property
            def contention_bits(self):
                return 8

            def contention_payload(self, tag_id, rng):
                return BitVector(1, 8)

            def classify(self, signal):
                return SlotOutcome(SlotType.IDLE)

            def miss_probability(self, m):
                return 0.5

        stats = fsa_one(100, 32, Flaky(), tm, 2)
        assert stats.missed_collisions > 0
