"""Missing-tag detection tests."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.apps.missing_tags import detect_missing_tags, expected_rounds
from repro.core.crc_cd import CRCCDDetector
from repro.core.qcd import QCDDetector
from repro.core.timing import TimingModel


def detect(expected, present, detector=None, seed=0, **kw):
    return detect_missing_tags(
        expected,
        present,
        detector or QCDDetector(8),
        TimingModel(),
        np.random.default_rng(seed),
        **kw,
    )


class TestCorrectness:
    def test_finds_exactly_the_missing(self):
        expected = list(range(100))
        missing = {3, 17, 42, 99}
        present = [i for i in expected if i not in missing]
        result = detect(expected, present)
        assert result.missing_ids == frozenset(missing)
        assert result.present == 96

    def test_none_missing(self):
        expected = list(range(50))
        result = detect(expected, expected)
        assert result.missing_ids == frozenset()

    def test_all_missing(self):
        expected = list(range(50))
        result = detect(expected, [])
        assert result.missing_ids == frozenset(expected)
        # Empty field: every slot silent, one round suffices.
        assert result.rounds == 1

    def test_empty_manifest(self):
        result = detect([], [])
        assert result.missing_ids == frozenset()
        assert result.rounds == 0

    def test_validation(self):
        with pytest.raises(ValueError, match="subset"):
            detect([1, 2], [3])
        with pytest.raises(ValueError, match="load"):
            detect([1, 2], [1], load=0)

    @settings(max_examples=25, deadline=None)
    @given(
        n=st.integers(1, 80),
        missing_frac=st.floats(0.0, 1.0),
        seed=st.integers(0, 9999),
    )
    def test_property_exact_classification(self, n, missing_frac, seed):
        rng = np.random.default_rng(seed)
        expected = list(range(n))
        k = int(round(missing_frac * n))
        missing = set(rng.choice(n, size=k, replace=False).tolist())
        present = [i for i in expected if i not in missing]
        result = detect(expected, present, seed=seed + 1)
        assert result.missing_ids == frozenset(missing)


class TestEfficiency:
    def test_no_id_is_ever_transferred(self):
        """Airtime never includes an ID phase: per-slot cost is bounded by
        the contention window."""
        det = QCDDetector(8)
        result = detect(list(range(200)), list(range(100, 200)), det)
        assert result.airtime <= result.slots * det.contention_bits * 1.0

    def test_qcd_six_times_cheaper(self):
        expected = list(range(300))
        present = expected[:250]
        qcd = detect(expected, present, QCDDetector(8), seed=5)
        crc = detect(expected, present, CRCCDDetector(id_bits=64), seed=5)
        assert qcd.slots == crc.slots  # identical schedule
        assert crc.airtime / qcd.airtime == pytest.approx(6.0, rel=0.01)

    def test_verification_cheaper_than_identification(self):
        """Verifying a 500-tag manifest must cost far less airtime than
        reading 500 tags."""
        from repro.sim.batch import fsa_fast_batch

        expected = list(range(500))
        verify = detect(expected, expected[:480], QCDDetector(8), seed=9)
        inventory = fsa_fast_batch(
            500, 300, QCDDetector(8), TimingModel(), [np.random.default_rng(9)]
        ).runs[0]
        assert verify.airtime < 0.5 * inventory.total_time

    def test_round_count_logarithmic(self):
        result = detect(list(range(1000)), list(range(1000)), seed=11)
        assert result.rounds <= 3 * expected_rounds(1000)

    def test_expected_rounds_model(self):
        assert expected_rounds(1) == 1.0
        assert expected_rounds(1000) > expected_rounds(100)
