"""Full-trace differential suite for the frame-batched Reader.

The frame-batched fast path must be *indistinguishable* from the per-slot
paths: every ``SlotRecord`` field, the identified/lost ID lists, the
aggregate stats, the channel counters and the protocol's final state must
match the frozen object Reader (``benchmarks/_reference_reader.py``) and
the live per-slot loop (the protocol's frame partition withheld) bit for
bit.  The grid is FSA/DFSA × QCD/CRC-CD
× all three misdetection policies, with populations drawn from
``repro.verify.strategies`` (edges n = 0, 1, 2 included).
"""

from __future__ import annotations

import pytest
from hypothesis import given, settings

from repro.bits.rng import make_rng
from repro.core.crc_cd import CRCCDDetector
from repro.core.qcd import QCDDetector
from repro.core.timing import TimingModel
from repro.protocols.dfsa import DynamicFSA
from repro.protocols.fsa import FramedSlottedAloha
from repro.tags.population import TagPopulation
from repro.verify.strategies import (
    adequate_frame,
    frame_slacks,
    population_factories,
)

#: 16-bit IDs keep CRC-CD's packed id ⊕ crc(id) payload inside one word.
ID_BITS = 16

#: Reader tiers (see ``tier_reader`` in tests/conftest.py); the object
#: tier is the reference.
TIERS = ("object", "packed", "batched")

DETECTORS = {
    "qcd8": lambda: QCDDetector(8),
    # Strength 2 misses collisions often, so the misdetection policies
    # (and the lost-tag bookkeeping) actually fire.
    "qcd2": lambda: QCDDetector(2),
    "crc": lambda: CRCCDDetector(id_bits=ID_BITS),
}

PROTOCOLS = {
    "fsa": lambda n, slack: FramedSlottedAloha(adequate_frame(n, slack)),
    "dfsa": lambda n, slack: DynamicFSA(initial_frame_size=max(2, n // 4)),
}


def _timing(policy: str) -> TimingModel:
    return TimingModel(
        id_bits=ID_BITS, guard_id_phase=(policy == "crc_guard")
    )


def _run_tier(make_reader, tier, pop_factory, protocol, detector, policy):
    pop = pop_factory()
    reader = make_reader(tier, detector, _timing(policy), policy=policy)
    result = reader.run_inventory(pop.tags, protocol)
    return result, reader.channel.stats, protocol


def _assert_identical(reference, other, label: str):
    res0, chan0, proto0 = reference
    res1, chan1, proto1 = other
    assert res1.trace == res0.trace, label
    assert res1.identified_ids == res0.identified_ids, label
    assert res1.lost_ids == res0.lost_ids, label
    assert res1.stats == res0.stats, label
    assert chan1 == chan0, label
    assert proto1.frames_started == proto0.frames_started, label
    assert proto1.slots_elapsed == proto0.slots_elapsed, label


@pytest.mark.parametrize("policy", ("paper", "crc_guard", "lost"))
@pytest.mark.parametrize("det_name", sorted(DETECTORS))
@pytest.mark.parametrize("proto_name", sorted(PROTOCOLS))
@settings(max_examples=12, deadline=None)
@given(pop_factory=population_factories(), slack=frame_slacks(16))
def test_trace_identity_across_tiers(
    tier_reader, proto_name, det_name, policy, pop_factory, slack
):
    n = len(pop_factory())
    runs = [
        _run_tier(
            tier_reader,
            tier,
            pop_factory,
            PROTOCOLS[proto_name](n, slack),
            DETECTORS[det_name](),
            policy,
        )
        for tier in TIERS
    ]
    for tier, run in zip(TIERS[1:], runs[1:]):
        _assert_identical(runs[0], run, f"{proto_name}/{det_name}/{tier}")


@pytest.mark.parametrize("termination", ("confirm", "frame", "immediate"))
def test_fsa_termination_modes_identical(tier_reader, termination):
    """All FSA termination modes stay tier-identical -- ``immediate``
    declines frame batching (mid-frame truncation would desynchronize
    the upfront frame accounting) and must fall back transparently."""
    runs = [
        _run_tier(
            tier_reader,
            tier,
            lambda: TagPopulation(23, id_bits=ID_BITS, rng=make_rng(404)),
            FramedSlottedAloha(8, termination=termination),
            QCDDetector(8),
            "paper",
        )
        for tier in TIERS
    ]
    for tier, run in zip(TIERS[1:], runs[1:]):
        _assert_identical(runs[0], run, f"{termination}/{tier}")


def test_dfsa_adaptation_history_identical(tier_reader):
    """Frame-level feedback must drive the Schoute estimator through the
    exact same frame-size decisions as per-slot feedback."""
    histories = []
    for tier in TIERS:
        protocol = DynamicFSA(initial_frame_size=4)
        _run_tier(
            tier_reader,
            tier,
            lambda: TagPopulation(31, id_bits=ID_BITS, rng=make_rng(77)),
            protocol,
            QCDDetector(8),
            "paper",
        )
        histories.append(protocol.adaptation_history)
    assert histories[1] == histories[0]
    assert histories[2] == histories[0]


def test_detector_counters_identical(tier_reader):
    """classify_packed_many must advance the instrumentation counters
    exactly as per-slot classification does, for QCD and CRC-CD."""
    for det_name, counter_names in (
        ("qcd8", ("classify_calls", "function_evaluations")),
        ("crc", ("classify_calls", "crc_computations", "crc_ops_total")),
    ):
        counters = []
        for tier in TIERS:
            detector = DETECTORS[det_name]()
            _run_tier(
                tier_reader,
                tier,
                lambda: TagPopulation(29, id_bits=ID_BITS, rng=make_rng(55)),
                FramedSlottedAloha(16),
                detector,
                "paper",
            )
            counters.append(
                {name: getattr(detector, name) for name in counter_names}
            )
        assert counters[1] == counters[0], det_name
        assert counters[2] == counters[0], det_name
