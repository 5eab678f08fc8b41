"""Energy-model tests."""

from __future__ import annotations

import pytest

from repro.bits.rng import make_rng
from repro.core.crc_cd import CRCCDDetector
from repro.core.ideal import IdealDetector
from repro.core.qcd import QCDDetector
from repro.core.timing import TimingModel
from repro.protocols.fsa import FramedSlottedAloha
from repro.sim.energy import EnergyBreakdown, EnergyModel, inventory_energy
from repro.sim.reader import Reader
from repro.tags.population import TagPopulation


def run(detector, n=60, seed=4):
    pop = TagPopulation(n, id_bits=64, rng=make_rng(seed))
    reader = Reader(detector, TimingModel())
    return reader.run_inventory(pop.tags, FramedSlottedAloha(36))


class TestModel:
    def test_validation(self):
        with pytest.raises(ValueError):
            EnergyModel(tag_tx_uw=-1)
        with pytest.raises(ValueError):
            EnergyModel(instr_nj=-0.1)

    def test_breakdown_totals(self):
        b = EnergyBreakdown(1.0, 2.0, 3.0)
        assert b.tag_total == 3.0
        assert b.total == 6.0


class TestAccounting:
    def test_reader_energy_proportional_to_airtime(self):
        det = QCDDetector(8)
        result = run(det)
        e = inventory_energy(result.trace, det, TimingModel())
        expected = result.stats.total_time * 100_000.0 * 1e-6
        assert e.reader_receive == pytest.approx(expected)

    def test_genie_has_zero_compute(self):
        det = IdealDetector(64)
        result = run(det)
        e = inventory_energy(result.trace, det, TimingModel())
        assert e.tag_compute == 0.0

    def test_empty_trace(self):
        e = inventory_energy([], QCDDetector(8), TimingModel())
        assert e.total == 0.0

    def test_crc_compute_uses_measured_ops(self):
        det = CRCCDDetector(id_bits=64)
        result = run(det)
        e = inventory_energy(result.trace, det, TimingModel())
        assert e.tag_compute > 0
        # ~161 ops/response vs QCD's 1: compute gap must exceed 100x.
        det_q = QCDDetector(8)
        result_q = run(det_q)
        e_q = inventory_energy(result_q.trace, det_q, TimingModel())
        per_resp_crc = e.tag_compute / max(
            1, sum(r.n_responders for r in result.trace)
        )
        per_resp_qcd = e_q.tag_compute / max(
            1, sum(r.n_responders for r in result_q.trace)
        )
        assert per_resp_crc > 100 * per_resp_qcd

    def test_table_engine_falls_back_to_modelled_ops(self):
        """A table engine counts no shift-register ops; the tag is still
        charged the modelled ~2.5 ops per ID bit, not zero."""
        det = CRCCDDetector(id_bits=64, method="table")
        det.contention_payload(0x1234, make_rng(1))
        det.classify(None)
        assert det.crc_computations == 1
        assert det.crc_ops_total == 0
        result = run(det)
        e = inventory_energy(result.trace, det, TimingModel())
        responses = sum(r.n_responders for r in result.trace)
        assert e.tag_compute == pytest.approx(responses * 2.5 * 64 * 0.5e-3)


class TestSchemeComparison:
    def test_qcd_saves_tag_and_reader_energy(self):
        det_c = CRCCDDetector(id_bits=64)
        res_c = run(det_c, seed=9)
        e_c = inventory_energy(res_c.trace, det_c, TimingModel())
        det_q = QCDDetector(8)
        res_q = run(det_q, seed=9)
        e_q = inventory_energy(res_q.trace, det_q, TimingModel())
        assert e_q.tag_transmit < e_c.tag_transmit
        assert e_q.tag_compute < e_c.tag_compute
        assert e_q.reader_receive < e_c.reader_receive
        assert e_q.total < 0.6 * e_c.total

    def test_guard_policy_costs_extra_tx(self):
        det = QCDDetector(8)
        plain = run(det, seed=11)
        e_plain = inventory_energy(plain.trace, det, TimingModel())
        guard_t = TimingModel(guard_id_phase=True)
        pop = TagPopulation(60, id_bits=64, rng=make_rng(11))
        guarded = Reader(det, guard_t, policy="crc_guard").run_inventory(
            pop.tags, FramedSlottedAloha(36)
        )
        e_guard = inventory_energy(guarded.trace, det, guard_t)
        assert e_guard.tag_transmit > e_plain.tag_transmit
