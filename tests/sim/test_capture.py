"""Capture-effect tests: channel, reader crediting, metrics."""

from __future__ import annotations

import pytest

from repro.bits.channel import Channel
from repro.bits.rng import make_rng
from repro.core.qcd import QCDDetector
from repro.core.crc_cd import CRCCDDetector
from repro.core.detector import SlotType
from repro.protocols.fsa import FramedSlottedAloha
from repro.protocols.bt import BinaryTree
from repro.sim.reader import Reader
from repro.tags.population import TagPopulation


class TestChannelCapture:
    def test_validation(self):
        with pytest.raises(ValueError):
            Channel(capture_probability=1.5)
        with pytest.raises(ValueError, match="rng is required"):
            Channel(capture_probability=0.5)
        with pytest.raises(ValueError):
            Channel(capture_probability=0.5, capture_falloff=0.0, rng=make_rng(0))

    def test_no_capture_on_single(self):
        ch = Channel(capture_probability=1.0, rng=make_rng(1))
        assert ch.transmit_packed([5], 8) == 5
        assert ch.last_capture_index is None

    def test_certain_capture_returns_one_signal(self):
        ch = Channel(capture_probability=1.0, rng=make_rng(1))
        a, b = 0b0001, 0b1000
        out = ch.transmit_packed([a, b], 4)
        assert out in (a, b)
        assert ch.last_capture_index in (0, 1)
        assert out == [a, b][ch.last_capture_index]
        assert ch.stats.captures == 1

    def test_zero_capture_always_superposes(self):
        ch = Channel()
        assert ch.transmit_packed([0b0001, 0b1000], 4) == 0b1001
        assert ch.last_capture_index is None

    def test_falloff_reduces_capture_with_m(self):
        def rate(m, trials=2000):
            ch = Channel(
                capture_probability=0.8, capture_falloff=0.5, rng=make_rng(9)
            )
            hits = 0
            sigs = [1 << i for i in range(m)]
            for _ in range(trials):
                ch.transmit_packed(sigs, 16)
                hits += ch.last_capture_index is not None
            return hits / trials

        assert rate(2) > rate(4) > rate(6)

    def test_flag_cleared_between_slots(self):
        ch = Channel(capture_probability=1.0, rng=make_rng(1))
        ch.transmit_packed([1, 2], 4)
        assert ch.last_capture_index is not None
        ch.transmit_packed([1], 4)
        assert ch.last_capture_index is None


class TestReaderWithCapture:
    def run(self, detector, protocol, n=60, p_capture=0.5, seed=3):
        pop = TagPopulation(n, id_bits=64, rng=make_rng(seed))
        channel = Channel(capture_probability=p_capture, rng=make_rng(seed + 1))
        reader = Reader(detector, channel=channel)
        result = reader.run_inventory(pop.tags, protocol)
        return pop, result

    def test_all_tags_still_identified_fsa(self):
        pop, result = self.run(QCDDetector(8), FramedSlottedAloha(32))
        assert sorted(result.identified_ids) == sorted(pop.ids)
        assert result.stats.captures > 0

    def test_all_tags_still_identified_bt(self):
        pop, result = self.run(QCDDetector(8), BinaryTree())
        assert sorted(result.identified_ids) == sorted(pop.ids)

    def test_crc_cd_also_benefits(self):
        pop, result = self.run(CRCCDDetector(id_bits=64), FramedSlottedAloha(32))
        assert sorted(result.identified_ids) == sorted(pop.ids)
        assert result.stats.captures > 0

    def test_captured_slots_not_counted_as_misses(self):
        _, result = self.run(QCDDetector(8), FramedSlottedAloha(32), p_capture=0.9)
        assert result.stats.captures > 0
        assert result.stats.accuracy == pytest.approx(1.0, abs=0.02)
        assert result.stats.missed_collisions <= 1

    def test_captured_record_shape(self):
        _, result = self.run(QCDDetector(8), FramedSlottedAloha(32), p_capture=1.0)
        captured = [r for r in result.trace if r.captured]
        assert captured
        for rec in captured:
            assert rec.true_type is SlotType.COLLIDED
            assert rec.detected_type is SlotType.SINGLE
            assert rec.identified_tag is not None
            assert not rec.misdetected  # legitimate read

    def test_capture_speeds_up_inventory(self):
        pop1, with_capture = self.run(
            QCDDetector(8), FramedSlottedAloha(32), p_capture=0.9, seed=11
        )
        pop2 = TagPopulation(60, id_bits=64, rng=make_rng(11))
        without = Reader(QCDDetector(8)).run_inventory(
            pop2.tags, FramedSlottedAloha(32)
        )
        assert (
            with_capture.stats.total_time <= without.stats.total_time
        )
