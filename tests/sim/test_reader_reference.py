"""The live Reader against the frozen per-slot object Reader.

``benchmarks/_reference_reader.py`` keeps the Reader's former object
tier -- ``BitVector`` payloads, the object channel, ``detector.classify``
-- as a differential oracle.  The live Reader runs every inventory on
packed ints, frame-batched where the protocol exports its frames and slot
by slot otherwise, and must equal the reference field by field: the
``SlotRecord`` trace, identified and lost IDs, ``ChannelStats`` (bit
flips and captures included), the detector's counters and, with
:mod:`repro.obs` on, the span/event stream and the metrics registry.
Slot by slot, the live detector's ``SlotOutcome`` verdicts must also
equal the reference's.

The grid is a pairwise covering array over five axes (protocol,
detector, policy, channel, instrumentation mode): every value of every
axis, and every pair of values of two axes, runs at least once.  Each
row runs three tiers: the reference, the live Reader with the protocol's
frame partition withheld (its per-slot loop) and the live Reader as is.
"""

from __future__ import annotations

import dataclasses
import itertools

import pytest

from repro import obs
from repro.bits.bitvec import BitVector
from repro.bits.channel import Channel
from repro.bits.rng import make_rng
from repro.core.collision_function import IdentityFunction
from repro.core.crc_cd import CRCCDDetector
from repro.core.detector import CollisionDetector, SlotOutcome, SlotType
from repro.core.ideal import IdealDetector
from repro.core.phy import FM0ViolationDetector
from repro.core.qcd import QCDDetector
from repro.core.rn16 import RN16Detector
from repro.core.timing import TimingModel
from repro.experiments.runner import _stable_hash
from repro.obs.tracing import RingBufferSink
from repro.protocols.abs_protocol import AdaptiveBinarySplitting
from repro.protocols.aqs import AdaptiveQuerySplitting
from repro.protocols.bt import BinaryTree
from repro.protocols.dfsa import DynamicFSA
from repro.protocols.fsa import FramedSlottedAloha
from repro.protocols.qadaptive import QAdaptive
from repro.protocols.qt import QueryTree
from repro.tags.population import TagPopulation
from repro.verify import invariants

N_TAGS = 30


class ParityDetector(CollisionDetector):
    """The custom detector of docs/EXTENDING.md section 1: no packed
    forms and no ``packed_bits`` of its own, so the live Reader runs it
    through the base class's defaults."""

    needs_id_phase = True

    def __init__(self, strength: int = 8):
        self.strength = strength
        self.name = f"parity-{strength}"

    @property
    def contention_bits(self) -> int:
        return self.strength + 1

    def contention_payload(self, tag_id, rng):
        r = int(rng.integers(1, 1 << self.strength))
        parity = bin(r).count("1") & 1
        return BitVector(r, self.strength) + BitVector(parity, 1)

    def classify(self, signal):
        if signal is None or signal.is_zero():
            return SlotOutcome(SlotType.IDLE)
        r, p = signal[:-1], signal[-1]
        ok = (r.popcount() & 1) == p
        return SlotOutcome(SlotType.SINGLE if ok else SlotType.COLLIDED)


PROTOCOLS = {
    "fsa": lambda: FramedSlottedAloha(16),
    "dfsa": lambda: DynamicFSA(initial_frame_size=8),
    "qadaptive": QAdaptive,
    "bt": BinaryTree,
    "qt": QueryTree,
    "abs": AdaptiveBinarySplitting,
    "aqs": AdaptiveQuerySplitting,
}

#: name -> (factory, id_bits).
DETECTORS = {
    "qcd2": (lambda: QCDDetector(2), 64),
    "qcd8": (lambda: QCDDetector(8), 64),
    "qcd16": (lambda: QCDDetector(16), 64),
    "qcd8-identity": (lambda: QCDDetector(8, IdentityFunction()), 64),
    "crc-id32": (lambda: CRCCDDetector(id_bits=32), 32),
    "crc-id64": (lambda: CRCCDDetector(id_bits=64), 64),
    "rn16": (RN16Detector, 64),
    "fm0": (lambda: FM0ViolationDetector(64), 64),
    "ideal": (lambda: IdealDetector(64), 64),
    "parity": (ParityDetector, 64),
}

POLICIES = ("paper", "crc_guard", "lost")

CHANNELS = {
    "clean": {},
    "ber1e-3": {"bit_error_rate": 1e-3},
    "ber2e-2": {"bit_error_rate": 2e-2},
    "capture0.5": {"capture_probability": 0.5},
    "capture1.0": {"capture_probability": 1.0},
    "ber-capture": {"bit_error_rate": 2e-2, "capture_probability": 0.5},
}

#: ``off``: no instrumentation; ``obs``: tracing into a ring buffer;
#: ``strict``: invariant checking that raises on any violation.
MODES = ("off", "obs", "strict")

AXES = {
    "protocol": tuple(PROTOCOLS),
    "detector": tuple(DETECTORS),
    "policy": POLICIES,
    "channel": tuple(CHANNELS),
    "mode": MODES,
}

TIERS = ("object", "packed", "batched")

COUNTERS = (
    "classify_calls", "function_evaluations", "crc_computations",
    "crc_ops_total",
)

#: Wall-clock fields: differ run to run by construction.
_CLOCK_FIELDS = ("start", "end", "duration", "time")


def covering_array(axes: dict[str, tuple[str, ...]]) -> list[tuple[str, ...]]:
    """Rows that hold every pair of values of every two axes (greedy).

    Each row starts from the smallest uncovered pair and fills the other
    axes with the value that covers the most still-uncovered pairs.
    """
    values = list(axes.values())
    k = len(values)

    def pairs(row):
        return {
            (i, row[i], j, row[j])
            for i, j in itertools.combinations(range(k), 2)
            if row[i] is not None and row[j] is not None
        }

    uncovered = {
        (i, a, j, b)
        for i, j in itertools.combinations(range(k), 2)
        for a in values[i]
        for b in values[j]
    }
    rows = []
    while uncovered:
        i, a, j, b = min(uncovered)
        row: list[str | None] = [None] * k
        row[i], row[j] = a, b
        for m in range(k):
            if row[m] is None:
                row[m] = max(
                    values[m],
                    key=lambda v: len(
                        pairs(row[:m] + [v] + row[m + 1:]) & uncovered
                    ),
                )
        rows.append(tuple(row))
        uncovered -= pairs(row)
    return rows


ROWS = covering_array(AXES)


@pytest.fixture(autouse=True)
def clean_state():
    obs.disable()
    obs.reset()
    invariants.disable()
    invariants.reset()
    yield
    obs.disable()
    obs.reset()
    invariants.disable()
    invariants.reset()


def _normalise(records):
    """Drop timestamps and relabel span ids by first appearance."""
    ids: dict[int, int] = {}
    out = []
    for record in records:
        rec = {k: v for k, v in record.items() if k not in _CLOCK_FIELDS}
        for field in ("span_id", "parent_id"):
            if rec.get(field) is not None:
                rec[field] = ids.setdefault(rec[field], len(ids))
        out.append(rec)
    return out


def _run(make_reader, tier, protocol, detector, policy, channel, mode):
    """One inventory on one tier; returns every field the tiers share."""
    factory, id_bits = DETECTORS[detector]
    det = factory()
    config = CHANNELS[channel]
    reader = make_reader(
        tier,
        det,
        TimingModel(id_bits=id_bits, guard_id_phase=policy == "crc_guard"),
        channel=Channel(rng=make_rng(77) if config else None, **config),
        policy=policy,
    )
    # Every per-slot classification, as the tier's reader sees it (the
    # batched tier classifies whole frames, so it records none).
    outcomes: list[SlotOutcome] = []
    if tier != "batched":
        method = "classify" if tier == "object" else "classify_packed"
        classify = getattr(det, method)

        def spy(*args):
            outcome = classify(*args)
            outcomes.append(outcome)
            return outcome

        setattr(det, method, spy)
    pop = TagPopulation(N_TAGS, id_bits=id_bits, rng=make_rng(5))
    sink = RingBufferSink(capacity=1_000_000)
    if mode == "obs":
        obs.reset()
        obs.enable(sink=sink)
    try:
        if mode == "strict":
            with invariants.checking(strict=True):
                result = reader.run_inventory(pop.tags, PROTOCOLS[protocol]())
        else:
            result = reader.run_inventory(pop.tags, PROTOCOLS[protocol]())
    finally:
        obs.disable()
    registry = obs.STATE.registry.to_dict()
    registry.pop("repro_profile_seconds", None)
    return {
        "trace": result.trace,
        "identified": result.identified_ids,
        "lost": result.lost_ids,
        "stats": result.stats,
        "channel": dataclasses.asdict(reader.channel.stats),
        "counters": {
            name: getattr(det, name) for name in COUNTERS if hasattr(det, name)
        },
        "records": _normalise(sink.records),
        "registry": registry,
        "outcomes": outcomes,
    }


def _assert_same_outcomes(ref, packed, detector, channel):
    """The per-slot tier's verdicts against the reference's, slot by slot.

    A one-phase detector's ``decoded_id`` is the received payload; the
    reference genie reported the sole transmitter's true ID instead, so
    under bit errors only the Ideal verdicts' slot types must agree.
    """
    ref_out, live_out = ref.pop("outcomes"), packed.pop("outcomes")
    assert len(ref_out) == len(ref["trace"])
    if detector == "ideal" and CHANNELS[channel].get("bit_error_rate"):
        ref_out = [o.slot_type for o in ref_out]
        live_out = [o.slot_type for o in live_out]
    assert live_out == ref_out


@pytest.mark.parametrize("row", ROWS, ids=["-".join(row) for row in ROWS])
def test_live_reader_equals_reference(tier_reader, row):
    protocol, detector, policy, channel, mode = row
    ref, *live = (
        _run(tier_reader, tier, protocol, detector, policy, channel, mode)
        for tier in TIERS
    )
    _assert_same_outcomes(ref, live[0], detector, channel)
    live[1].pop("outcomes")
    for tier, run in zip(TIERS[1:], live):
        for key, value in ref.items():
            assert run[key] == value, f"{tier}: {key}"
    assert len(set(ref["identified"]) | set(ref["lost"])) == N_TAGS
    if mode == "obs":
        assert ref["records"] and ref["registry"]


@pytest.mark.parametrize("channel", ["ber1e-3", "ber2e-2", "ber-capture"])
@pytest.mark.parametrize("detector", ["qcd2", "qcd16", "crc-id32", "fm0"])
@pytest.mark.parametrize("protocol", ["fsa", "dfsa"])
def test_framed_bit_errors_equal_reference(
    tier_reader, protocol, detector, channel
):
    """Bit errors on the frame-batched path (one flip draw per frame),
    in uint64 and object arenas, beyond the pairwise grid."""
    ref, *live = (
        _run(tier_reader, tier, protocol, detector, "lost", channel, "off")
        for tier in TIERS
    )
    _assert_same_outcomes(ref, live[0], detector, channel)
    live[1].pop("outcomes")
    for tier, run in zip(TIERS[1:], live):
        for key, value in ref.items():
            assert run[key] == value, f"{tier}: {key}"


def test_covering_array_holds_every_pair():
    names = list(AXES)
    for (i, a), (j, b) in itertools.combinations(enumerate(names), 2):
        seen = {(row[i], row[j]) for row in ROWS}
        assert seen == set(itertools.product(AXES[a], AXES[b])), (a, b)


def test_noisy_axes_exercise_flips_and_captures(tier_reader):
    """The grid's channels are only a check if the draws fire."""
    for channel, stat in (
        ("ber1e-3", "flipped_bits"),
        ("ber2e-2", "flipped_bits"),
        ("capture0.5", "captures"),
        ("capture1.0", "captures"),
    ):
        run = _run(
            tier_reader, "batched", "fsa", "crc-id64", "paper", channel, "off"
        )
        assert run["channel"][stat] > 0, channel


# ----------------------------------------------------------------------
# The batch-reader oracle's object-tier comparison (repro-verify now
# compares the Reader's per-slot and batched paths only): same configs,
# seeds and rounds as the oracle at its default seed.

ORACLE_SEED = 2010
ORACLE_ROUNDS = 8
ORACLE_BASE = ORACLE_SEED * 1_000_003 + _stable_hash("batch-reader")
TIMING32 = TimingModel(id_bits=32)
ORACLE_CONFIGS = {
    "fsa_qcd8": (lambda: FramedSlottedAloha(16),
                 lambda: QCDDetector(8), "paper", TimingModel(), 37),
    "fsa_qcd2_lost": (lambda: FramedSlottedAloha(8),
                      lambda: QCDDetector(2), "lost", TimingModel(), 29),
    "dfsa_qcd8": (lambda: DynamicFSA(initial_frame_size=8),
                  lambda: QCDDetector(8), "paper", TimingModel(), 37),
    "dfsa_crc": (lambda: DynamicFSA(initial_frame_size=8),
                 lambda: CRCCDDetector(id_bits=32), "paper", TIMING32, 23),
}


@pytest.mark.parametrize("c_i, label", enumerate(ORACLE_CONFIGS))
def test_batch_reader_oracle_configs_match_reference(tier_reader, c_i, label):
    proto, det, policy, timing, n = ORACLE_CONFIGS[label]
    for i in range(ORACLE_ROUNDS):
        seed = ORACLE_BASE + 10_000 * c_i + i
        runs = []
        for tier in TIERS:
            pop = TagPopulation(n, id_bits=timing.id_bits, rng=make_rng(seed))
            reader = tier_reader(tier, det(), timing, policy=policy)
            res = reader.run_inventory(pop.tags, proto())
            runs.append(
                (res.trace, res.identified_ids, res.lost_ids,
                 reader.channel.stats)
            )
        assert runs[1] == runs[0], (label, i)
        assert runs[2] == runs[0], (label, i)
