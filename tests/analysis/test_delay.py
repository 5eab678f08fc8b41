"""Analytic delay-model tests (Figure 6 backing)."""

from __future__ import annotations

import numpy as np
import pytest

from repro.analysis.delay import expected_delay_reduction, expected_mean_delay
from repro.analysis.optimal_frame import SlotCosts
from repro.core.crc_cd import CRCCDDetector
from repro.core.qcd import QCDDetector
from repro.core.timing import TimingModel
from repro.sim.batch import fsa_fast_batch

QCD_COSTS = SlotCosts.from_timing(QCDDetector(8), TimingModel())
CRC_COSTS = SlotCosts.from_timing(CRCCDDetector(id_bits=64), TimingModel())


class TestModel:
    def test_validation(self):
        with pytest.raises(ValueError):
            expected_mean_delay(0, 10, QCD_COSTS)
        with pytest.raises(ValueError):
            expected_mean_delay(5, 1, QCD_COSTS)

    def test_undersized_frame_raises(self):
        with pytest.raises(RuntimeError):
            expected_mean_delay(5000, 2, QCD_COSTS)

    def test_matches_simulation_qcd(self):
        n, frame = 500, 300
        predicted = expected_mean_delay(n, frame, QCD_COSTS)
        runs = fsa_fast_batch(
            n,
            frame,
            QCDDetector(8),
            TimingModel(),
            [np.random.default_rng(s) for s in range(15)],
        ).runs
        sims = [s.delay.mean for s in runs]
        assert sum(sims) / len(sims) == pytest.approx(predicted, rel=0.05)

    def test_matches_simulation_crc(self):
        n, frame = 500, 300
        predicted = expected_mean_delay(n, frame, CRC_COSTS)
        runs = fsa_fast_batch(
            n,
            frame,
            CRCCDDetector(id_bits=64),
            TimingModel(),
            [np.random.default_rng(s) for s in range(15)],
        ).runs
        sims = [s.delay.mean for s in runs]
        assert sum(sims) / len(sims) == pytest.approx(predicted, rel=0.05)


class TestFigure6Explanation:
    def test_reduction_near_61_percent(self):
        """The consistent-accounting reduction the simulation measures."""
        red = expected_delay_reduction(500, 300, CRC_COSTS, QCD_COSTS)
        assert red == pytest.approx(0.61, abs=0.03)

    def test_paper_80_percent_needs_ack_clock(self):
        """Stop the delay clock at the preamble ACK (singles cost only
        l_prm) and the same model yields the paper's >80%."""
        ack_clock = SlotCosts(idle=16.0, single=16.0, collided=16.0)
        red = expected_delay_reduction(500, 300, CRC_COSTS, ack_clock)
        assert red > 0.80

    def test_reduction_stable_across_cases(self):
        reds = [
            expected_delay_reduction(n, int(n * 0.6), CRC_COSTS, QCD_COSTS)
            for n in (50, 500, 5000)
        ]
        assert max(reds) - min(reds) < 0.04
