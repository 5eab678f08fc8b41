"""The exact Reader's packed per-slot loop vs the frozen object Reader.

The live Reader runs every slot on integer payloads (QCD's ``r ⊕ r̄``,
CRC-CD's ``id ⊕ crc(id)``) and the channel's Boolean sum as an int OR --
but it must be *observationally identical* to the per-slot object Reader
frozen in ``benchmarks/_reference_reader.py``: same RNG consumption, same
slot verdicts, same stats, same channel accounting.  These tests pin that
equivalence on the per-slot loop (the protocol's frame partition
withheld) and that neither tracing nor invariant checking moves a framed
inventory off the frame-batched path.
"""

from __future__ import annotations

import dataclasses

import pytest

from repro import obs
from repro.bits.rng import make_rng
from repro.core.crc_cd import CRCCDDetector
from repro.core.qcd import QCDDetector
from repro.protocols.bt import BinaryTree
from repro.protocols.fsa import FramedSlottedAloha
from repro.sim.reader import Reader
from repro.tags.population import TagPopulation
from repro.verify import invariants


def run(reader, timing, protocol_factory, n, seed):
    pop = TagPopulation(n, id_bits=timing.id_bits, rng=make_rng(seed))
    return reader, reader.run_inventory(pop.tags, protocol_factory())


def assert_identical(res_a, res_b):
    assert res_a.identified_ids == res_b.identified_ids
    assert res_a.lost_ids == res_b.lost_ids
    assert res_a.stats == res_b.stats
    assert len(res_a.trace) == len(res_b.trace)
    for ra, rb in zip(res_a.trace, res_b.trace):
        assert ra == rb


def tier_calls(monkeypatch):
    """Count entries into the Reader's frame and slot paths."""
    calls = dict.fromkeys(("_run_frame", "_run_slot"), 0)
    for name in calls:
        real = getattr(Reader, name)

        def counted(self, *args, _real=real, _name=name, **kwargs):
            calls[_name] += 1
            return _real(self, *args, **kwargs)

        monkeypatch.setattr(Reader, name, counted)
    return calls


class TestEquivalence:
    @pytest.mark.parametrize("strength", [2, 8, 16])
    @pytest.mark.parametrize(
        "protocol_factory", [lambda: FramedSlottedAloha(16), BinaryTree]
    )
    @pytest.mark.parametrize("n", [0, 1, 37])
    def test_packed_matches_object_path(
        self, strength, protocol_factory, n, timing, tier_reader
    ):
        _, a = run(
            tier_reader("packed", QCDDetector(strength), timing),
            timing, protocol_factory, n, 31,
        )
        _, b = run(
            tier_reader("object", QCDDetector(strength), timing),
            timing, protocol_factory, n, 31,
        )
        assert_identical(a, b)

    def test_detector_counters_match(self, timing, tier_reader):
        ra, _ = run(
            tier_reader("packed", QCDDetector(8), timing),
            timing, lambda: FramedSlottedAloha(16), 37, 32,
        )
        rb, _ = run(
            tier_reader("object", QCDDetector(8), timing),
            timing, lambda: FramedSlottedAloha(16), 37, 32,
        )
        assert ra.detector.classify_calls == rb.detector.classify_calls
        assert (
            ra.detector.function_evaluations
            == rb.detector.function_evaluations
        )

    def test_channel_stats_match(self, timing, tier_reader):
        ra, _ = run(
            tier_reader("packed", QCDDetector(8), timing),
            timing, BinaryTree, 37, 33,
        )
        rb, _ = run(
            tier_reader("object", QCDDetector(8), timing),
            timing, BinaryTree, 37, 33,
        )
        assert dataclasses.asdict(ra.channel.stats) == dataclasses.asdict(
            rb.channel.stats
        )


class TestGating:
    def test_auto_gate_uses_packed_when_supported(self, timing, monkeypatch):
        """A framed QCD inventory runs every frame batched."""
        calls = tier_calls(monkeypatch)
        _, result = run(
            Reader(QCDDetector(8), timing),
            timing, lambda: FramedSlottedAloha(16), 37, 31,
        )
        assert calls == {"_run_frame": result.stats.frames, "_run_slot": 0}

    def test_auto_gate_uses_packed_for_wide_crc(self, timing, monkeypatch):
        """CRC-CD's 96-bit ``id ⊕ crc(id)`` at the paper's layout batches
        in an object arena (tests/sim/test_reader_crc_wide.py pins the
        tiers identical)."""
        calls = tier_calls(monkeypatch)
        reader, _ = run(
            Reader(CRCCDDetector(id_bits=64), timing),
            timing, lambda: FramedSlottedAloha(16), 37, 31,
        )
        assert reader.detector.packed_bits == 96
        assert reader._arena.dtype == object
        assert calls["_run_frame"] > 0 and calls["_run_slot"] == 0

    def test_tracing_keeps_packed_path(self, timing, monkeypatch):
        """Observability reads only the SlotRecord stream, so enabling it
        (with or without invariant checking) leaves frames batched
        (tests/obs/test_reader_obs_paths.py pins that every tier then
        traces and counts identically)."""
        calls = tier_calls(monkeypatch)
        obs.enable()
        try:
            run(
                Reader(QCDDetector(8), timing),
                timing, lambda: FramedSlottedAloha(16), 37, 31,
            )
            with invariants.checking():
                run(
                    Reader(QCDDetector(8), timing),
                    timing, lambda: FramedSlottedAloha(16), 37, 31,
                )
        finally:
            obs.disable()
            invariants.reset()
        assert calls["_run_frame"] > 0 and calls["_run_slot"] == 0

    def test_verdicts_survive_gate_flip(self, timing):
        """Enabling invariants mid-experiment changes no outcome: the
        checked run replays the identical inventory."""
        _, a = run(
            Reader(QCDDetector(4), timing),
            timing, lambda: FramedSlottedAloha(8), 21, 34,
        )
        with invariants.checking():
            _, b = run(
                Reader(QCDDetector(4), timing),
                timing, lambda: FramedSlottedAloha(8), 21, 34,
            )
        invariants.reset()
        assert_identical(a, b)
