"""The exact Reader's uint64 fast path vs the object path.

The packed path replaces BitVector payloads with machine-word integers
(QCD's ``r ⊕ r̄`` fits in ``2l <= 64`` bits) and the channel's Boolean
sum with ``np.bitwise_or.reduce`` -- but it must be *observationally
identical*: same RNG consumption, same slot verdicts, same stats, same
channel accounting.  These tests pin that equivalence and the gating
rules (invariant checking forces the object path; tracing does not).
"""

from __future__ import annotations

import dataclasses

import pytest

from repro import obs
from repro.bits.channel import Channel
from repro.bits.rng import make_rng
from repro.core.collision_function import IdentityFunction
from repro.core.crc_cd import CRCCDDetector
from repro.core.qcd import QCDDetector
from repro.protocols.bt import BinaryTree
from repro.protocols.fsa import FramedSlottedAloha
from repro.sim.reader import Reader
from repro.tags.population import TagPopulation
from repro.verify import invariants


def run(detector, timing, protocol_factory, n, seed, packed):
    pop = TagPopulation(n, id_bits=timing.id_bits, rng=make_rng(seed))
    reader = Reader(detector, timing, packed=packed)
    res = reader.run_inventory(pop.tags, protocol_factory())
    return reader, res


def assert_identical(res_a, res_b):
    assert res_a.identified_ids == res_b.identified_ids
    assert res_a.lost_ids == res_b.lost_ids
    assert res_a.stats == res_b.stats
    assert len(res_a.trace) == len(res_b.trace)
    for ra, rb in zip(res_a.trace, res_b.trace):
        assert ra == rb


class TestEquivalence:
    @pytest.mark.parametrize("strength", [2, 8, 16])
    @pytest.mark.parametrize(
        "protocol_factory", [lambda: FramedSlottedAloha(16), BinaryTree]
    )
    @pytest.mark.parametrize("n", [0, 1, 37])
    def test_packed_matches_object_path(
        self, strength, protocol_factory, n, timing
    ):
        _, a = run(
            QCDDetector(strength), timing, protocol_factory, n, 31, True
        )
        _, b = run(
            QCDDetector(strength), timing, protocol_factory, n, 31, False
        )
        assert_identical(a, b)

    def test_detector_counters_match(self, timing):
        ra, _ = run(
            QCDDetector(8), timing, lambda: FramedSlottedAloha(16), 37, 32, True
        )
        rb, _ = run(
            QCDDetector(8), timing, lambda: FramedSlottedAloha(16), 37, 32, False
        )
        assert ra.detector.classify_calls == rb.detector.classify_calls
        assert (
            ra.detector.function_evaluations
            == rb.detector.function_evaluations
        )

    def test_channel_stats_match(self, timing):
        ra, _ = run(QCDDetector(8), timing, BinaryTree, 37, 33, True)
        rb, _ = run(QCDDetector(8), timing, BinaryTree, 37, 33, False)
        assert dataclasses.asdict(ra.channel.stats) == dataclasses.asdict(
            rb.channel.stats
        )


class TestGating:
    def test_auto_gate_uses_packed_when_supported(self, timing):
        assert Reader(QCDDetector(8), timing)._use_packed()

    def test_auto_gate_uses_packed_for_wide_crc(self, timing):
        """CRC-CD's 96-bit ``id ⊕ crc(id)`` at the paper's layout runs
        the packed path as a plain int (tests/sim/test_reader_crc_wide.py
        pins the tiers identical)."""
        reader = Reader(CRCCDDetector(id_bits=64), timing)
        assert reader.detector.packed_bits == 96
        assert reader._use_packed()

    def test_auto_gate_falls_back_without_packed_form(self, timing):
        """An ablation collision function has no packed form."""
        reader = Reader(QCDDetector(8, IdentityFunction()), timing)
        assert not reader._use_packed()

    def test_auto_gate_falls_back_for_noisy_channel(self, timing, rng):
        reader = Reader(
            QCDDetector(8),
            timing,
            channel=Channel(bit_error_rate=0.1, rng=rng.child()),
        )
        assert not reader._use_packed()

    def test_tracing_keeps_packed_path(self, timing):
        """Observability reads only the SlotRecord stream, so enabling it
        leaves the fast path on (tests/obs/test_reader_obs_paths.py pins
        that every tier then traces and counts identically)."""
        obs.enable()
        try:
            assert Reader(QCDDetector(8), timing)._use_packed()
            with invariants.checking():
                assert not Reader(QCDDetector(8), timing)._use_packed()
        finally:
            obs.disable()
            invariants.reset()

    def test_invariants_force_object_path(self, timing):
        with invariants.checking():
            assert not Reader(QCDDetector(8), timing)._use_packed()
        invariants.reset()

    def test_packed_false_forces_object_path(self, timing):
        assert not Reader(QCDDetector(8), timing, packed=False)._use_packed()

    def test_packed_true_requires_support(self, timing, rng):
        with pytest.raises(ValueError, match="packed"):
            Reader(QCDDetector(8, IdentityFunction()), timing, packed=True)
        with pytest.raises(ValueError, match="packed"):
            Reader(
                QCDDetector(8),
                timing,
                channel=Channel(bit_error_rate=0.1, rng=rng.child()),
                packed=True,
            )

    def test_packed_true_yields_only_to_invariants(self, timing):
        """Explicit ``packed=True`` must not silently skip invariant
        checks -- they win, with identical verdicts either way -- while
        tracing alone keeps the fast path."""
        reader = Reader(QCDDetector(8), timing, packed=True)
        obs.enable()
        try:
            assert reader._use_packed()
        finally:
            obs.disable()
        with invariants.checking():
            assert not reader._use_packed()
        invariants.reset()
        assert reader._use_packed()

    def test_verdicts_survive_gate_flip(self, timing):
        """Enabling invariants mid-experiment flips the gate but not the
        outcome: the object path replays the identical inventory."""
        _, a = run(
            QCDDetector(4), timing, lambda: FramedSlottedAloha(8), 21, 34, None
        )
        with invariants.checking():
            _, b = run(
                QCDDetector(4),
                timing,
                lambda: FramedSlottedAloha(8),
                21,
                34,
                None,
            )
        invariants.reset()
        assert_identical(a, b)
