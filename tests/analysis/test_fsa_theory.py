"""Lemma 1 tests: FSA throughput theory."""

from __future__ import annotations

import math

import pytest

from repro.analysis.fsa_theory import (
    expected_throughput,
    expected_total_slots,
    max_throughput,
    optimal_frame_size,
)


class TestLemma1:
    def test_max_throughput_is_1_over_e(self):
        assert max_throughput() == pytest.approx(1 / math.e)
        assert max_throughput() == pytest.approx(0.37, abs=0.005)

    def test_optimal_frame_equals_n(self):
        assert optimal_frame_size(100) == 100

    def test_throughput_peaks_at_f_equals_n(self):
        n = 200
        at_n = expected_throughput(n, n)
        assert at_n > expected_throughput(n, n // 2)
        assert at_n > expected_throughput(n, 2 * n)

    def test_throughput_at_optimum_near_bound(self):
        assert expected_throughput(1000, 1000) == pytest.approx(
            1 / math.e, abs=0.01
        )

    def test_poisson_approximation_close(self):
        exact = expected_throughput(500, 400, exact=True)
        approx = expected_throughput(500, 400, exact=False)
        assert approx == pytest.approx(exact, rel=0.01)

    def test_zero_tags(self):
        assert expected_throughput(0, 10) == 0.0

    def test_validation(self):
        with pytest.raises(ValueError):
            expected_throughput(-1, 10)
        with pytest.raises(ValueError):
            expected_throughput(10, 0)
        with pytest.raises(ValueError):
            optimal_frame_size(0)
        with pytest.raises(ValueError):
            expected_total_slots(-1)

    def test_expected_total_slots(self):
        # Section V-A rounds e·n to 2.7·n.
        assert expected_total_slots(100) == pytest.approx(271.8, abs=0.1)


class TestAgainstSimulation:
    def test_theory_matches_first_frame_simulation(self):
        """The binomial model predicts the simulated first-frame single
        count."""
        import numpy as np

        from repro.protocols.estimators import expected_slot_counts

        n, frame = 300, 300
        _, e1, _ = expected_slot_counts(n, frame)
        sims = []
        for seed in range(15):
            rng = np.random.default_rng(seed)
            occ = np.bincount(rng.integers(0, frame, n), minlength=frame)
            sims.append(int((occ == 1).sum()))
        assert sum(sims) / len(sims) == pytest.approx(e1, rel=0.1)
