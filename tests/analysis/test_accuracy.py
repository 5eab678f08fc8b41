"""QCD accuracy model tests (Figure 5 backing)."""

from __future__ import annotations

import numpy as np
import pytest

from repro.analysis.accuracy import (
    collision_size_pmf,
    expected_accuracy_fsa,
    qcd_miss_probability,
    required_strength,
)


class TestMissProbability:
    def test_exact_vs_paper_approximation(self):
        exact = qcd_miss_probability(2, 8, exact=True)
        approx = qcd_miss_probability(2, 8, exact=False)
        assert exact == pytest.approx(1 / 255)
        assert approx == pytest.approx(1 / 256)
        assert exact > approx  # positive-only draws are slightly worse

    def test_geometric_decay_in_m(self):
        p2 = qcd_miss_probability(2, 4)
        p3 = qcd_miss_probability(3, 4)
        assert p3 == pytest.approx(p2**2)

    def test_no_miss_below_two(self):
        assert qcd_miss_probability(1, 8) == 0.0
        assert qcd_miss_probability(0, 8) == 0.0

    def test_validation(self):
        with pytest.raises(ValueError):
            qcd_miss_probability(2, 0)


class TestCollisionSizePmf:
    def test_normalized(self):
        pmf = collision_size_pmf(100, 100)
        assert sum(pmf.values()) == pytest.approx(1.0, abs=1e-6)

    def test_pair_dominates_at_operating_point(self):
        pmf = collision_size_pmf(100, 100)
        assert pmf[2] > 0.5

    def test_overloaded_frame_shifts_mass_up(self):
        balanced = collision_size_pmf(60, 60)
        crowded = collision_size_pmf(240, 60)
        assert crowded[2] < balanced[2]

    def test_validation(self):
        with pytest.raises(ValueError):
            collision_size_pmf(1, 10)


class TestExpectedAccuracy:
    def test_increases_with_strength(self):
        accs = [expected_accuracy_fsa(500, 300, s) for s in (4, 8, 16)]
        assert accs[0] < accs[1] < accs[2]

    def test_figure5_shape(self):
        """Paper Figure 5: 8-bit strength reaches ~100% accuracy, 4-bit is
        visibly below, 16-bit is essentially perfect."""
        assert expected_accuracy_fsa(500, 300, 4) < 0.99
        assert expected_accuracy_fsa(500, 300, 8) > 0.99
        assert expected_accuracy_fsa(500, 300, 16) > 0.9999

    def test_crowding_raises_per_collision_detectability(self):
        """Counter-intuitive but correct: at a *fixed* frame size, more
        tags mean larger collisions (higher m), and P(miss) = (2^l−1)^−(m−1)
        decays geometrically in m -- so the expected accuracy *rises* with
        crowding.  (The paper's 'fewer tags -> higher accuracy' remark
        refers to its cases, where the frame scales with n and the
        full-inventory small-sample effects dominate; see the benchmark
        for Figure 5.)"""
        fewer = expected_accuracy_fsa(50, 300, 4)
        more = expected_accuracy_fsa(900, 300, 4)
        assert more > fewer

    def test_strength_dominates_population_effects(self):
        """The paper's main Figure 5 observation: strength moves accuracy
        far more than the tag count does -- across its cases, where the
        frame scales with the population (constant n/ℱ ≈ 5/3), the
        occupancy mix barely changes, while each strength step cuts the
        pair-miss rate 16x."""
        spread_n = abs(
            expected_accuracy_fsa(50, 30, 4) - expected_accuracy_fsa(5000, 3000, 4)
        )
        spread_l = abs(
            expected_accuracy_fsa(500, 300, 8) - expected_accuracy_fsa(500, 300, 4)
        )
        assert spread_l > 5 * spread_n

    def test_trivial_cases(self):
        assert expected_accuracy_fsa(0, 10, 4) == 1.0
        assert expected_accuracy_fsa(1, 10, 4) == 1.0


class TestModelAgainstSimulation:
    def test_first_frame_prediction_matches_inventory(self):
        """The analytic accuracy tracks the full-inventory simulation."""
        from repro.core.qcd import QCDDetector
        from repro.core.timing import TimingModel
        from repro.sim.batch import fsa_fast_batch

        n, frame, strength = 500, 300, 4
        predicted = expected_accuracy_fsa(n, frame, strength)
        runs = fsa_fast_batch(
            n,
            frame,
            QCDDetector(strength),
            TimingModel(),
            [np.random.default_rng(seed) for seed in range(20)],
        ).runs
        sims = [s.accuracy for s in runs]
        measured = sum(sims) / len(sims)
        assert measured == pytest.approx(predicted, abs=0.02)


class TestRequiredStrength:
    def test_recommendation_is_8_for_99_percent(self):
        """The paper recommends l = 8; the model agrees for ~99% accuracy
        at the evaluation's operating points."""
        assert required_strength(0.99, 500, 300) <= 8

    def test_monotone_targets(self):
        low = required_strength(0.9, 500, 300)
        high = required_strength(0.9999, 500, 300)
        assert high >= low

    def test_validation(self):
        with pytest.raises(ValueError):
            required_strength(1.0, 10, 10)
        with pytest.raises(ValueError):
            required_strength(0.0, 10, 10)
