"""Lemma 2 tests: binary-tree slot-count theory."""

from __future__ import annotations

import pytest

from repro.analysis.bt_theory import (
    BT_COLLIDED_PER_TAG,
    BT_IDLE_PER_TAG,
    BT_SLOTS_PER_TAG,
    bt_average_throughput,
    expected_bt_collided,
    expected_bt_idle,
    expected_bt_slots,
)


class TestBaseCases:
    def test_zero_and_one(self):
        assert expected_bt_slots(0) == 1.0
        assert expected_bt_slots(1) == 1.0
        assert expected_bt_collided(0) == 0.0
        assert expected_bt_collided(1) == 0.0
        assert expected_bt_idle(0) == 1.0
        assert expected_bt_idle(1) == 0.0

    def test_two_tags_closed_form(self):
        """L(2) solves L = 1 + (1/2)(L(1)+L(1)) + (1/2)(L(2)+L(0)) ...
        exactly: with p0 = 1/4 for each of (0,2) and (2,0), L(2) = 5."""
        assert expected_bt_slots(2) == pytest.approx(5.0)

    def test_two_tags_collisions(self):
        # C(2)·(1 − 2·(1/4)) = 1 => C(2) = 2.
        assert expected_bt_collided(2) == pytest.approx(2.0)

    def test_two_tags_idles(self):
        # I(2) = L(2) − C(2) − 2 singles = 5 − 2 − 2 = 1.
        assert expected_bt_idle(2) == pytest.approx(1.0)

    def test_validation(self):
        with pytest.raises(ValueError):
            expected_bt_slots(-1)
        with pytest.raises(ValueError):
            expected_bt_collided(-1)
        with pytest.raises(ValueError):
            expected_bt_idle(-1)
        with pytest.raises(ValueError):
            bt_average_throughput(0)


class TestConsistency:
    @pytest.mark.parametrize("n", [2, 5, 10, 40, 100])
    def test_components_sum_to_total(self, n):
        total = expected_bt_slots(n)
        parts = expected_bt_collided(n) + expected_bt_idle(n) + n
        assert parts == pytest.approx(total, rel=1e-9)


class TestLemma2Asymptotics:
    def test_slots_per_tag_converges_to_2885(self):
        n = 300
        assert expected_bt_slots(n) / n == pytest.approx(
            BT_SLOTS_PER_TAG, abs=0.02
        )

    def test_collided_per_tag(self):
        n = 300
        assert expected_bt_collided(n) / n == pytest.approx(
            BT_COLLIDED_PER_TAG, abs=0.02
        )

    def test_idle_per_tag(self):
        n = 300
        assert expected_bt_idle(n) / n == pytest.approx(
            BT_IDLE_PER_TAG, abs=0.02
        )

    def test_average_throughput(self):
        assert bt_average_throughput() == pytest.approx(0.347, abs=0.01)
        assert bt_average_throughput(300) == pytest.approx(0.35, abs=0.01)


class TestAgainstSimulation:
    def test_recursion_matches_monte_carlo(self):
        import numpy as np

        from repro.core.ideal import IdealDetector
        from repro.core.timing import TimingModel
        from repro.sim.batch import bt_fast_batch

        n = 100
        runs = bt_fast_batch(
            n,
            IdealDetector(64),
            TimingModel(),
            [np.random.default_rng(s) for s in range(30)],
        ).runs
        totals = [s.true_counts.total for s in runs]
        assert sum(totals) / len(totals) == pytest.approx(
            expected_bt_slots(n), rel=0.06
        )
