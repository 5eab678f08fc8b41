"""The exact Reader's tiers under enabled observability.

With :mod:`repro.obs` on, the frame-batched path and the per-slot loop
(the protocol's frame partition withheld) must stay *observationally
identical* to the frozen object Reader
(``benchmarks/_reference_reader.py``): the same ``SlotRecord`` trace, the
same span/event
sequence (type, name, attrs and parent, with wall-clock timestamps and
span ids normalised away) and the same metrics registry (less the
wall-clock ``repro_profile_seconds`` histogram).  The grid covers the
protocols that batch (fsa/dfsa frames, qt's prefix queue), bt, which
runs slot by slot, weak QCD strengths under the ``"lost"`` policy
so the misdetection and lost-tag counters fire, and a ``max_slots`` bound
that drops a batched inventory onto the per-slot loop mid-frame.
"""

from __future__ import annotations

import pytest

from repro import obs
from repro.bits.rng import make_rng
from repro.core.crc_cd import CRCCDDetector
from repro.core.qcd import QCDDetector
from repro.core.timing import TimingModel
from repro.obs import instruments as inst
from repro.obs.tracing import NullSink, RingBufferSink, Tracer
from repro.protocols.bt import BinaryTree
from repro.protocols.dfsa import DynamicFSA
from repro.protocols.fsa import FramedSlottedAloha
from repro.protocols.qt import QueryTree
from repro.sim.reader import Reader
from repro.tags.population import TagPopulation

#: 16-bit IDs keep CRC-CD's packed payload inside one machine word.
ID_BITS = 16

#: Reader tiers (see ``tier_reader`` in tests/conftest.py): the default
#: (frame-batched) Reader, the live per-slot loop, the object Reader.
TIERS = ("batched", "packed", "object")

PROTOCOLS = {
    "fsa": lambda: FramedSlottedAloha(32),
    "dfsa": lambda: DynamicFSA(initial_frame_size=16),
    "bt": BinaryTree,
    "qt": QueryTree,
}

DETECTORS = {
    "qcd-2": lambda: QCDDetector(2),
    "qcd-4": lambda: QCDDetector(4),
    "qcd-8": lambda: QCDDetector(8),
    "crc": lambda: CRCCDDetector(id_bits=ID_BITS),
}

#: Wall-clock fields: differ run to run by construction.
_CLOCK_FIELDS = ("start", "end", "duration", "time")


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


def _registry():
    snapshot = obs.STATE.registry.to_dict()
    snapshot.pop("repro_profile_seconds", None)
    return snapshot


def _run_tier(
    make_reader, protocol, detector, policy, n, seed, tier, max_slots=None
):
    """One traced inventory; returns (result or error, records, registry)."""
    obs.reset()
    sink = RingBufferSink(capacity=1_000_000)
    obs.enable(sink=sink)
    pop = TagPopulation(n, id_bits=ID_BITS, rng=make_rng(seed))
    reader = make_reader(
        tier,
        DETECTORS[detector](),
        TimingModel(id_bits=ID_BITS),
        policy=policy,
        **({} if max_slots is None else {"max_slots": max_slots}),
    )
    try:
        outcome = reader.run_inventory(pop.tags, PROTOCOLS[protocol]())
    except RuntimeError as exc:
        outcome = exc
    finally:
        obs.disable()
    return outcome, _normalise(sink.records), _registry()


def _assert_tiers_agree(
    make_reader, protocol, detector, policy, n, seed, max_slots=None
):
    runs = [
        _run_tier(
            make_reader, protocol, detector, policy, n, seed, tier, max_slots
        )
        for tier in TIERS
    ]
    (ref, ref_records, ref_registry), *others = runs
    for outcome, records, registry in others:
        if isinstance(ref, RuntimeError):
            assert str(outcome) == str(ref)
        else:
            assert outcome.trace == ref.trace
            assert outcome.identified_ids == ref.identified_ids
            assert outcome.lost_ids == ref.lost_ids
            assert outcome.stats == ref.stats
        assert records == ref_records
        assert registry == ref_registry
        # Same families and children in the same order, not just equal
        # values: the Prometheus dump renders in insertion order.
        assert list(registry) == list(ref_registry)
    return ref, ref_records, ref_registry


@pytest.mark.parametrize("detector", ["qcd-8", "crc"])
@pytest.mark.parametrize("protocol", sorted(PROTOCOLS))
def test_tiers_agree_paper_policy(tier_reader, protocol, detector):
    result, records, _ = _assert_tiers_agree(
        tier_reader, protocol, detector, "paper", 60, 3
    )
    assert result.identified_ids
    assert any(r["name"] == "frame" for r in records)
    assert sum(r["name"] == "slot" for r in records) == len(result.trace)


@pytest.mark.parametrize("detector", ["qcd-2", "qcd-4", "qcd-8"])
@pytest.mark.parametrize("protocol", ["fsa", "dfsa"])
@pytest.mark.parametrize("seed", [5, 11])
def test_tiers_agree_lost_policy(tier_reader, protocol, detector, seed):
    _assert_tiers_agree(tier_reader, protocol, detector, "lost", 80, seed)


@pytest.mark.parametrize("protocol", ["fsa", "dfsa"])
def test_default_tier_batches_frames_under_obs(
    tier_reader, protocol, monkeypatch
):
    """The agreement above would hold trivially if enabling obs pushed
    every tier onto one path; the default tier must batch."""
    batched = []
    run_frame = Reader._run_frame

    def spy(self, *args, **kwargs):
        batched.append(True)
        return run_frame(self, *args, **kwargs)

    monkeypatch.setattr(Reader, "_run_frame", spy)
    result, records, _ = _run_tier(
        tier_reader, protocol, "qcd-8", "paper", 60, 3, TIERS[0]
    )
    assert batched
    frames = [r for r in records if r["name"] == "frame"]
    assert [f["attrs"]["frame"] for f in frames] == list(
        range(1, result.stats.frames + 1)
    )


def test_lost_policy_fires_the_misdetection_counters(tier_reader):
    """The grid above is only meaningful if the counters it compares
    actually move: QCD-2 under ``"lost"`` misses collisions."""
    result, _, registry = _assert_tiers_agree(
        tier_reader, "fsa", "qcd-2", "lost", 80, 5
    )
    assert result.lost_ids
    assert registry[inst.LOST]["samples"][0]["value"] == len(result.lost_ids)
    kinds = {
        s["labels"]["kind"]: s["value"]
        for s in registry[inst.MISDETECTIONS]["samples"]
    }
    assert kinds["missed_collision"] == result.stats.missed_collisions


@pytest.mark.parametrize("protocol", ["fsa", "dfsa"])
def test_max_slots_falls_back_mid_inventory(tier_reader, protocol):
    """A frame that no longer fits under ``max_slots`` runs slot by slot
    until the bound trips; spans still close and counters still agree."""
    error, records, registry = _assert_tiers_agree(
        tier_reader, protocol, "qcd-8", "paper", 80, 7, max_slots=50
    )
    assert isinstance(error, RuntimeError)
    assert sum(r["name"] == "slot" for r in records) == 50
    assert obs.STATE.registry.counter_totals(inst.SLOTS) == 50
    (inventory,) = [r for r in records if r["name"] == "inventory"]
    assert inventory["attrs"]["slots"] == 50
    assert registry[inst.SLOTS]["samples"]


def test_record_slots_equals_record_slot_per_record(reference_reader):
    """One bulk pass over a trace's columns against the frozen per-slot
    recorder, record by record: same events, same registry dump."""
    pop = TagPopulation(80, id_bits=ID_BITS, rng=make_rng(5))
    reader = Reader(
        QCDDetector(2), TimingModel(id_bits=ID_BITS), policy="lost"
    )
    trace = reader.run_inventory(pop.tags, FramedSlottedAloha(32)).trace

    def recorded(record_all):
        obs.reset()
        sink = RingBufferSink(capacity=100_000)
        obs.enable(sink=sink)
        record_all()
        obs.disable()
        return _normalise(sink.records), obs.STATE.registry.to_prometheus()

    bulk = recorded(lambda: inst.record_slots(trace))
    single = recorded(lambda: [reference_reader.record_slot(r) for r in trace])
    assert bulk == single


class TestNullSinkEvents:
    def test_null_sink_event_builds_nothing(self, monkeypatch):
        tracer = Tracer(NullSink())
        emitted = []
        monkeypatch.setattr(NullSink, "emit", lambda self, r: emitted.append(r))
        tracer.event("slot", index=0)
        assert emitted == []

    def test_ring_buffer_still_receives_every_event(self):
        sink = RingBufferSink()
        tracer = Tracer(sink)
        with tracer.span("inventory"):
            for i in range(5):
                tracer.event("slot", index=i)
        events = sink.events("slot")
        assert [e["attrs"]["index"] for e in events] == list(range(5))
        (span,) = sink.spans("inventory")
        assert all(e["span_id"] == span["span_id"] for e in events)
