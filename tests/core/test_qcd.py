"""QCD detector tests (Algorithm 1)."""

from __future__ import annotations

import copy
import pickle

import pytest
from hypothesis import given

from repro.bits.bitvec import BitVector
from repro.core.collision_function import IdentityFunction
from repro.core.detector import SlotType
from repro.core.qcd import QCDDetector
from repro.verify.strategies import distinct_preamble_values


class TestAlgorithm1:
    def test_idle_on_none(self):
        assert QCDDetector(8).classify(None).slot_type is SlotType.IDLE

    def test_idle_on_zero_signal(self):
        det = QCDDetector(8)
        assert det.classify(BitVector.zeros(16)).slot_type is SlotType.IDLE

    def test_single_on_consistent_preamble(self, rng):
        det = QCDDetector(8)
        signal = det.contention_payload(0xDEAD, rng)
        assert det.classify(signal).slot_type is SlotType.SINGLE

    def test_collision_on_distinct_overlap(self):
        det = QCDDetector(8)
        a = det.codec.encode(BitVector(0x01, 8))
        b = det.codec.encode(BitVector(0x02, 8))
        assert det.classify(a | b).slot_type is SlotType.COLLIDED

    def test_miss_on_identical_draws(self):
        """The known blind spot: equal random integers overlap invisibly."""
        det = QCDDetector(8)
        a = det.codec.encode(BitVector(0x42, 8))
        assert det.classify(a | a).slot_type is SlotType.SINGLE

    def test_decoded_id_is_none(self, rng):
        """QCD is two-phase: the ID arrives after the ACK, not in the
        contention signal."""
        det = QCDDetector(8)
        signal = det.contention_payload(7, rng)
        assert det.classify(signal).decoded_id is None

    @given(distinct_preamble_values(8, min_size=2, max_size=8))
    def test_always_detects_distinct_draws(self, values):
        det = QCDDetector(8)
        signals = [det.codec.encode(BitVector(v, 8)) for v in values]
        overlap = BitVector.superpose(signals)
        assert det.classify(overlap).slot_type is SlotType.COLLIDED


class TestParameters:
    def test_contention_bits(self):
        assert QCDDetector(8).contention_bits == 16
        assert QCDDetector(4).contention_bits == 8
        assert QCDDetector(16).contention_bits == 32

    def test_needs_id_phase(self):
        assert QCDDetector(8).needs_id_phase

    def test_name_includes_strength(self):
        assert QCDDetector(4).name == "QCD-4"

    def test_payload_ignores_tag_id(self, rng):
        """The contention payload depends only on the random draw."""
        det = QCDDetector(8)
        s = det.contention_payload(0xFFFF, rng)
        assert s.length == 16


class TestMissProbability:
    def test_single_is_never_missed(self):
        assert QCDDetector(8).miss_probability(1) == 0.0
        assert QCDDetector(8).miss_probability(0) == 0.0

    def test_pair_probability(self):
        # m = 2: both tags must draw the same of 2^l - 1 values.
        assert QCDDetector(4).miss_probability(2) == pytest.approx(1 / 15)
        assert QCDDetector(8).miss_probability(2) == pytest.approx(1 / 255)

    def test_decreases_with_m(self):
        det = QCDDetector(8)
        assert det.miss_probability(3) < det.miss_probability(2)

    def test_decreases_with_strength(self):
        assert QCDDetector(16).miss_probability(2) < QCDDetector(8).miss_probability(2)

    def test_empirical_pair_miss_rate(self, rng):
        """Monte-Carlo check of the miss model at l = 4 (rate 1/15)."""
        det = QCDDetector(4)
        trials = 4000
        misses = 0
        for _ in range(trials):
            a = det.contention_payload(0, rng)
            b = det.contention_payload(1, rng)
            if det.classify(a | b).slot_type is SlotType.SINGLE:
                misses += 1
        rate = misses / trials
        assert 0.03 < rate < 0.11  # 1/15 ≈ 0.067


class TestInstrumentation:
    def test_counters(self, rng):
        det = QCDDetector(8)
        det.classify(None)
        det.classify(det.contention_payload(1, rng))
        assert det.classify_calls == 2
        assert det.function_evaluations == 1  # idle slots skip the check
        det.reset_instrumentation()
        assert det.classify_calls == 0
        assert det.function_evaluations == 0


class TestAblationPackedForms:
    """An ablation function runs the base class's BitVector-backed packed
    forms, bound at construction; copies must keep that binding."""

    @pytest.mark.parametrize(
        "clone", [copy.deepcopy, lambda d: pickle.loads(pickle.dumps(d))]
    )
    def test_copies_keep_the_function(self, clone):
        det = clone(QCDDetector(8, IdentityFunction()))
        # r = 0b10101010 with its complement: consistent for the paper's
        # function, inconsistent for the identity.
        value = (0b10101010 << 8) | 0b01010101
        assert det.classify_packed(value, 1).slot_type is SlotType.COLLIDED
        assert det.classify_calls == 1
        assert (
            QCDDetector(8).classify_packed(value, 1).slot_type
            is SlotType.SINGLE
        )
