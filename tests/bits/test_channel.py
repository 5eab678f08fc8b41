"""Channel model tests: superposition, idle semantics, noise, accounting."""

from __future__ import annotations

import dataclasses

import numpy as np
import pytest

from repro.bits.bitvec import BitVector
from repro.bits.channel import Channel
from repro.bits.rng import make_rng


class TestSuperposition:
    def test_idle_slot_returns_none(self):
        ch = Channel()
        assert ch.transmit_packed([], 8) is None

    def test_single_transmission_passes_through(self):
        ch = Channel()
        assert ch.transmit_packed([0b0101], 4) == 0b0101

    def test_overlap_is_boolean_sum(self):
        ch = Channel()
        assert ch.transmit_packed([0b011001, 0b010010], 6) == 0b011011

    def test_length_mismatch_rejected(self, reference_reader):
        """Packed payloads share one width by construction; the object
        channel of the frozen reference rejects unequal lengths."""
        with pytest.raises(ValueError):
            reference_reader.transmit(
                Channel(), [BitVector(0, 4), BitVector(0, 5)]
            )


class TestStats:
    def test_accounting(self):
        ch = Channel()
        ch.transmit_packed([], 8)
        ch.transmit_packed([1], 8)
        ch.transmit_packed([1, 2], 8)
        assert ch.stats.slots == 3
        assert ch.stats.transmissions == 3
        assert ch.stats.bits_on_air == 24

    def test_reset(self):
        ch = Channel()
        ch.transmit_packed([1], 8)
        ch.stats.reset()
        assert ch.stats.slots == 0
        assert ch.stats.bits_on_air == 0


class TestNoise:
    def test_noise_requires_rng(self):
        with pytest.raises(ValueError, match="rng is required"):
            Channel(bit_error_rate=0.1)

    def test_invalid_ber(self):
        with pytest.raises(ValueError):
            Channel(bit_error_rate=1.0)
        with pytest.raises(ValueError):
            Channel(bit_error_rate=-0.1)

    def test_zero_ber_never_corrupts(self):
        ch = Channel()
        for _ in range(20):
            assert ch.transmit_packed([0b10101010], 8) == 0b10101010

    def test_high_ber_flips_bits(self):
        ch = Channel(bit_error_rate=0.5, rng=make_rng(7))
        results = [ch.transmit_packed([0], 64) for _ in range(10)]
        assert any(results)
        assert ch.stats.flipped_bits > 0

    def test_flip_count_roughly_matches_rate(self):
        ch = Channel(bit_error_rate=0.25, rng=make_rng(11))
        total = 0
        for _ in range(100):
            out = ch.transmit_packed([0], 100)
            total += bin(out).count("1")
        # 100 rounds x 100 bits x 0.25 = 2500 expected flips.
        assert 2000 < total < 3000
        assert ch.stats.flipped_bits == total

    def test_idle_slot_immune_to_noise(self):
        ch = Channel(bit_error_rate=0.9, rng=make_rng(3))
        assert ch.transmit_packed([], 8) is None
        assert ch.stats.flipped_bits == 0


class TestPackedDraws:
    """The packed channel draws from its RNG exactly as the object
    channel of the frozen reference does, and lays flips out MSB-first."""

    @staticmethod
    def _pair(**config):
        return [Channel(rng=make_rng(5), **config) for _ in range(2)]

    def test_flip_draw_i_hits_bit_bits_minus_1_minus_i(self):
        ch = Channel(bit_error_rate=0.3, rng=make_rng(13))
        draws = make_rng(13).random(12) < 0.3
        expected = sum(1 << (11 - i) for i in np.flatnonzero(draws))
        assert expected
        assert ch.transmit_packed([0], 12) == expected

    @pytest.mark.parametrize(
        "config",
        [
            {"bit_error_rate": 0.05},
            {"capture_probability": 0.5},
            {"capture_probability": 0.7, "bit_error_rate": 0.05},
        ],
    )
    def test_matches_object_channel_slot_by_slot(
        self, reference_reader, config
    ):
        packed, obj = self._pair(**config)
        gen = np.random.default_rng(2)
        for _ in range(300):
            n = int(gen.integers(0, 5))
            values = [int(v) for v in gen.integers(0, 1 << 20, size=n)]
            out = packed.transmit_packed(values, 20)
            ref = reference_reader.transmit(
                obj, [BitVector(v, 20) for v in values]
            )
            assert out == (None if ref is None else ref.to_int())
            assert packed.last_capture_index == obj.last_capture_index
        assert dataclasses.asdict(packed.stats) == dataclasses.asdict(
            obj.stats
        )
        assert packed.stats.flipped_bits or packed.stats.captures

    @pytest.mark.parametrize("bits", [16, 96])
    def test_frame_flips_equal_per_slot_flips(self, bits):
        """One ``random(bits * occupied)`` draw per frame gives the same
        flips as one ``random(bits)`` per occupied slot, in slot order."""
        many, single = self._pair(bit_error_rate=0.05)
        counts = np.array([0, 1, 3, 0, 2, 1, 0, 4])
        gen = np.random.default_rng(8)
        values = [int(v) for v in gen.integers(0, 1 << 16, counts.sum())]
        dtype = np.uint64 if bits <= 64 else object
        out = many.transmit_packed_many(
            np.array(values, dtype=dtype), counts, bits
        )
        expected, start = [], 0
        for count in counts.tolist():
            value = single.transmit_packed(values[start:start + count], bits)
            expected.append(0 if value is None else value)
            start += count
        assert [int(v) for v in out] == expected
        assert many.stats == single.stats
        assert many.stats.flipped_bits > 0
