"""The live tree protocols against their frozen slot-by-slot versions.

``benchmarks/_reference_protocols.py`` keeps BT, ABS, QT and AQS as they
were while every one of them ran slot by slot (BT and ABS rescanning the
population twice per slot, QT and AQS probing one prefix at a time).
The live protocols keep contention groups (BT, ABS) and export their
prefix queue as a frame (QT, AQS).  Run on the frozen Reader of
``benchmarks/_reference_reader.py``, the reference protocols must equal
the live protocols on the live Reader field by field: trace, identified
and lost IDs, ``InventoryStats``, ``ChannelStats``, the detector's
counters and every tag's final ``counter``.

Beyond the protocol x detector x policy x channel product, the grid
covers readable rounds with churn (``ContinuousMonitor``), mobility
(``MobileInventoryEngine``), jamming and blocker tags, a protocol
``max_slots`` bound, a Reader ``max_slots`` that a QT frame would cross,
and noisy singles read as idle, whose unidentified responders fall below
counter 0.
"""

from __future__ import annotations

import dataclasses
import itertools

import pytest

from repro.bits.bitvec import BitVector
from repro.bits.channel import Channel
from repro.bits.rng import make_rng
from repro.core.crc_cd import CRCCDDetector
from repro.core.detector import SlotType
from repro.core.ideal import IdealDetector
from repro.core.qcd import QCDDetector
from repro.core.timing import TimingModel
from repro.protocols.abs_protocol import AdaptiveBinarySplitting
from repro.protocols.aqs import AdaptiveQuerySplitting
from repro.protocols.bt import BinaryTree
from repro.protocols.qt import QueryTree
from repro.security.blocker import BlockerTag, MaliciousTag
from repro.sim import monitoring
from repro.sim.engine import MobileInventoryEngine
from repro.sim.reader import Reader
from repro.tags.mobility import poisson_arrivals
from repro.tags.population import TagPopulation

PROTOCOLS = {
    "bt": "BinaryTree",
    "abs": "AdaptiveBinarySplitting",
    "qt": "QueryTree",
    "aqs": "AdaptiveQuerySplitting",
}
DETECTORS = {
    "qcd8": lambda: QCDDetector(8),
    "crc": lambda: CRCCDDetector(id_bits=64),
    "ideal": lambda: IdealDetector(64),
}
POLICIES = ("paper", "crc_guard", "lost")
CHANNELS = {
    "clean": {},
    "ber1e-3": {"bit_error_rate": 1e-3},
    "ber2e-2": {"bit_error_rate": 2e-2},
    "capture0.5": {"capture_probability": 0.5},
}
COUNTERS = (
    "classify_calls", "function_evaluations", "crc_computations",
    "crc_ops_total",
)
N_TAGS = 40


class Side:
    """One side of the comparison: a Reader class and protocol classes."""

    def __init__(self, reader_cls, protocols):
        self.reader_cls = reader_cls
        self.protocols = protocols

    def protocol(self, name, **kwargs):
        return getattr(self.protocols, PROTOCOLS[name])(**kwargs)

    def reader(self, detector, policy="paper", channel="clean", id_bits=64,
               **kwargs):
        """``channel`` names a :data:`CHANNELS` entry or is a Channel."""
        if isinstance(channel, str):
            config = CHANNELS[channel]
            channel = Channel(rng=make_rng(77) if config else None, **config)
        return self.reader_cls(
            detector,
            TimingModel(
                id_bits=id_bits, guard_id_phase=policy == "crc_guard"
            ),
            channel=channel,
            policy=policy,
            **kwargs,
        )


class _Live:
    BinaryTree = BinaryTree
    AdaptiveBinarySplitting = AdaptiveBinarySplitting
    QueryTree = QueryTree
    AdaptiveQuerySplitting = AdaptiveQuerySplitting


@pytest.fixture(scope="module")
def sides(reference_reader, reference_protocols):
    return (
        Side(reference_reader.Reader, reference_protocols),
        Side(Reader, _Live),
    )


def _state(reader, tags):
    """Everything an inventory leaves behind outside its result."""
    det = reader.detector
    return {
        "channel": dataclasses.asdict(reader.channel.stats),
        "counters": {n: getattr(det, n) for n in COUNTERS if hasattr(det, n)},
        "tags": [
            (t.tag_id, t.identified, t.identified_at, t.lost, t.counter)
            for t in tags
        ],
    }


def _protocol_state(protocol):
    """The schedule state a protocol carries past an inventory: ABS's
    PSC and maximum ASC, AQS's candidates in slot order, QT's abort."""
    state = {"slots": protocol.slots_elapsed, "frames": protocol.frames_started}
    if hasattr(protocol, "_max_asc"):
        state["asc"] = (protocol._psc, protocol._max_asc)
    if hasattr(protocol, "aborted"):
        state["aborted"] = protocol.aborted
    if hasattr(protocol, "candidate_queue"):
        state["candidates"] = [
            (prefix.to_bitstring(), idle)
            for prefix, idle in protocol.candidate_queue
        ]
    return state


def _outcome(reader, tags, protocol):
    """One inventory; a Reader ``max_slots`` abort is part of the outcome."""
    out = {}
    try:
        result = reader.run_inventory(tags, protocol)
    except RuntimeError as exc:
        out["error"] = str(exc)
    else:
        out.update(
            trace=result.trace,
            identified=result.identified_ids,
            lost=result.lost_ids,
            stats=result.stats,
        )
    out.update(_state(reader, tags), protocol=_protocol_state(protocol))
    return out


def _inventory(side, protocol, detector, policy="paper", channel="clean",
               seed=5, reader_kwargs=None, **protocol_kwargs):
    reader = side.reader(
        DETECTORS[detector](), policy, channel, **(reader_kwargs or {})
    )
    tags = TagPopulation(N_TAGS, id_bits=64, rng=make_rng(seed)).tags
    return _outcome(reader, tags, side.protocol(protocol, **protocol_kwargs))


def _assert_equal(ref, live):
    assert live.keys() == ref.keys()
    for key, value in ref.items():
        assert live[key] == value, key


def _recorded_pair(sides, make_reader, make_tags, protocol, **kwargs):
    """``(ref, ref_records, live)``: one inventory per side, with every
    slot record the reference Reader made, also past an abort."""
    ref_side, live_side = sides
    ref_reader, records = make_reader(ref_side), []
    run_slot = ref_reader._run_slot

    def _run_slot(*args, **kw):
        time, record = run_slot(*args, **kw)
        records.append(record)
        return time, record

    ref_reader._run_slot = _run_slot
    ref = _outcome(
        ref_reader, make_tags(), ref_side.protocol(protocol, **kwargs)
    )
    live = _outcome(
        make_reader(live_side), make_tags(),
        live_side.protocol(protocol, **kwargs),
    )
    return ref, records, live


def _assert_reference_prefix(ref, ref_records, live):
    """Live BT ends once only stranded responders (below counter 0) are
    left; the reference BT idles on until the Reader's bound.  Where the
    reference completes, the runs are equal; where it aborts, the live
    trace is its prefix, only idle slots follow, and the tags end alike
    except for the stranded tags' counters, which kept counting down."""
    if "error" not in ref:
        _assert_equal(ref, live)
        return
    assert "error" not in live
    n = len(live["trace"])
    assert live["trace"] == ref_records[:n]
    assert ref_records[n:] and all(
        r.n_responders == 0 and r.detected_type is SlotType.IDLE
        for r in ref_records[n:]
    )
    assert live["identified"] == [
        r.identified_tag for r in ref_records if r.identified_tag is not None
    ]
    assert [t[:4] for t in live["tags"]] == [t[:4] for t in ref["tags"]]


GRID = list(itertools.product(PROTOCOLS, DETECTORS, POLICIES, CHANNELS))


@pytest.mark.parametrize(
    "protocol, detector, policy, channel", GRID,
    ids=["-".join(row) for row in GRID],
)
def test_inventory_equals_reference(sides, protocol, detector, policy, channel):
    ref, live = (
        _inventory(side, protocol, detector, policy, channel) for side in sides
    )
    _assert_equal(ref, live)
    assert "error" not in ref


@pytest.mark.parametrize("seed", range(8))
@pytest.mark.parametrize("protocol", PROTOCOLS)
def test_noisy_seeds_equal_reference(sides, protocol, seed):
    """More populations on the noisy channels, under the lost policy."""
    for detector, channel in (("qcd8", "ber2e-2"), ("crc", "ber1e-3")):
        ref, live = (
            _inventory(side, protocol, detector, "lost", channel, seed=seed)
            for side in sides
        )
        _assert_equal(ref, live)


@pytest.mark.parametrize("protocol", PROTOCOLS)
def test_singles_read_as_idle_equal_reference(sides, protocol):
    """QCD-1 under heavy bit errors reads true singles as idle: their
    unidentified responders go below counter 0 (BT, ABS) or are orphaned
    (QT, AQS).  BT brings them back on the next collision and ends once
    they are all that is left; the reference BT idles on until the
    Reader's bound (seeds 2, 3 and 5)."""
    stranded = 0
    for seed in range(6):
        ref, records, live = _recorded_pair(
            sides,
            lambda side: side.reader(
                QCDDetector(1),
                channel=Channel(bit_error_rate=0.15, rng=make_rng(seed)),
                max_slots=3000,
            ),
            lambda: TagPopulation(30, id_bits=64, rng=make_rng(seed)).tags,
            protocol,
        )
        if protocol == "bt":
            _assert_reference_prefix(ref, records, live)
        else:
            _assert_equal(ref, live)
        stranded += sum(
            r.true_type is SlotType.SINGLE and r.detected_type is SlotType.IDLE
            for r in ref.get("trace", ())
        ) + sum(not ident and counter < 0 for _, ident, _, _, counter in ref["tags"])
    assert stranded


@pytest.mark.parametrize("protocol", PROTOCOLS)
@pytest.mark.parametrize("jammer", ["malicious", "blocker"])
def test_jammers_equal_reference(sides, protocol, jammer):
    """Jammers answer prefixes they do not own (QT and AQS then run slot
    by slot under their own ``max_slots``) and never retire, so under BT
    and ABS they fall below counter 0 after every single (BT then ends
    where the reference idles until the Reader's bound)."""

    def make_tags():
        tags = TagPopulation(20, id_bits=8, rng=make_rng(9)).tags
        if jammer == "malicious":
            extra = MaliciousTag(tag_id=0, id_bits=8, rng=make_rng(66))
        else:
            extra = BlockerTag(tag_id=1, id_bits=8, rng=make_rng(67),
                               privacy_prefix=BitVector(1, 1))
        return [*tags[:10], extra, *tags[10:]]

    ref, records, live = _recorded_pair(
        sides,
        lambda side: side.reader(
            QCDDetector(8), channel="ber1e-3", id_bits=8, max_slots=2000
        ),
        make_tags,
        protocol,
        **({"max_slots": 300} if protocol in ("qt", "aqs") else {}),
    )
    if protocol == "bt":
        _assert_reference_prefix(ref, records, live)
    else:
        _assert_equal(ref, live)


@pytest.mark.parametrize("protocol", ["qt", "aqs"])
@pytest.mark.parametrize("bound", [1, 7, 60])
def test_protocol_max_slots_equal_reference(sides, protocol, bound):
    ref, live = (
        _inventory(side, protocol, "qcd8", max_slots=bound) for side in sides
    )
    _assert_equal(ref, live)
    assert ref["protocol"]["slots"] == bound


@pytest.mark.parametrize("protocol", ["qt", "aqs"])
@pytest.mark.parametrize("bound", [3, 20, 45])
def test_reader_max_slots_inside_a_frame(sides, protocol, bound):
    """A Reader bound that a prefix frame would cross: the live Reader
    runs that frame slot by slot and stops where the reference does."""
    ref, live = (
        _inventory(side, protocol, "qcd8", reader_kwargs={"max_slots": bound})
        for side in sides
    )
    _assert_equal(ref, live)
    assert "error" in ref and ref["protocol"]["slots"] == bound


def _monitor(side, protocol, channel, monkeypatch):
    # ContinuousMonitor recognises ABS and AQS by class; let it see the
    # reference classes too.
    monkeypatch.setattr(
        monitoring, "AdaptiveBinarySplitting",
        (AdaptiveBinarySplitting, side.protocols.AdaptiveBinarySplitting),
    )
    monkeypatch.setattr(
        monitoring, "AdaptiveQuerySplitting",
        (AdaptiveQuerySplitting, side.protocols.AdaptiveQuerySplitting),
    )
    reader = side.reader(QCDDetector(8), channel=channel)
    proto = side.protocol(protocol)
    monitor = monitoring.ContinuousMonitor(
        reader, proto, make_rng(31), id_bits=64
    )
    pop = TagPopulation(40, id_bits=64, rng=make_rng(32))
    result = monitor.run(pop, rounds=5, churn=6)
    return {
        "rounds": result.rounds,
        "protocol": _protocol_state(proto),
        **_state(reader, pop.tags),
    }


@pytest.mark.parametrize("channel", ["clean", "ber2e-2"])
@pytest.mark.parametrize("protocol", PROTOCOLS)
def test_readable_rounds_with_churn_equal_reference(
    sides, protocol, channel, monkeypatch
):
    """Warm starts from stored ASCs (ABS) and candidate queues (AQS),
    with tags leaving and arriving between rounds."""
    ref, live = (
        _monitor(side, protocol, channel, monkeypatch) for side in sides
    )
    _assert_equal(ref, live)


@pytest.mark.parametrize("protocol", PROTOCOLS)
def test_mobility_equals_reference(sides, protocol):
    """``admit`` and ``withdraw`` mid-round, on the live engine."""
    runs = []
    for side in sides:
        pop = TagPopulation(80, id_bits=16, rng=make_rng(5))
        schedule = poisson_arrivals(
            pop.tags[20:], rate=0.05, dwell_mean=200.0, rng=make_rng(6)
        )
        reader = Reader(QCDDetector(8), TimingModel(id_bits=16))
        proto = side.protocol(protocol)
        result = MobileInventoryEngine(reader).run(
            proto, schedule, initial_tags=pop.tags[:20]
        )
        runs.append({
            "trace": result.trace,
            "identified": result.identified_ids,
            "escaped": result.escaped_ids,
            "sojourn": result.sojourn_delays,
            "protocol": _protocol_state(proto),
            **_state(reader, pop.tags),
        })
    _assert_equal(*runs)
    assert runs[0]["escaped"]


def test_tree_protocols_batch_where_they_can():
    """QT and AQS run frame-batched; BT and ABS run slot by slot, and so
    does QT under a ``max_slots`` bound or on a capturing channel."""

    def tiers(protocol, channel=None):
        reader = Reader(QCDDetector(8), TimingModel(), channel=channel)
        seen = dict.fromkeys(("_run_frame", "_run_slot"), 0)
        for name in seen:
            real = getattr(reader, name)

            def counted(*args, _name=name, _real=real, **kwargs):
                seen[_name] += 1
                return _real(*args, **kwargs)

            setattr(reader, name, counted)
        tags = TagPopulation(60, id_bits=64, rng=make_rng(1)).tags
        reader.run_inventory(tags, protocol)
        return seen["_run_frame"] > 0, seen["_run_slot"] > 0

    assert tiers(QueryTree()) == (True, False)
    assert tiers(AdaptiveQuerySplitting()) == (True, False)
    capture = Channel(capture_probability=0.5, rng=make_rng(3))
    for protocol, channel in (
        (BinaryTree(), None),
        (AdaptiveBinarySplitting(), None),
        (QueryTree(max_slots=10_000), None),
        (QueryTree(), capture),
    ):
        assert tiers(protocol, channel) == (False, True), protocol.name
