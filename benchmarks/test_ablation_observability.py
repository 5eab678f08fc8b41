"""Ablation -- cost of the repro.obs instrumentation on the exact reader.

The observability hooks in the hot slot loop must be near-free when
:mod:`repro.obs` is disabled: per slot they amount to one attribute load
and a falsy branch.  To quantify that, this module keeps a copy of the
live Reader's loop (``Reader._run``/``_run_slot``) with every obs and
invariant hook site removed as the baseline, checks it still produces
the identical trace (so the comparison is apples-to-apples), and
asserts the disabled-mode overhead on a per-slot protocol (the Binary
Tree, which runs every slot through ``_run_slot``) stays under 5%.

Enabled mode is timed too, and its counters are asserted against the
``slot_counts`` trace ground truth.  With the default ``NullSink`` the
framed QCD-8 and CRC-CD readers must stay on their frame-batched tier,
so enabled mode gets a budget of its own (:data:`ENABLED_BUDGET`)."""

from __future__ import annotations

import time

import pytest

from repro import obs
from repro.bits.rng import make_rng
from repro.core.crc_cd import CRCCDDetector
from repro.core.detector import SlotType
from repro.core.qcd import QCDDetector
from repro.core.timing import TimingModel
from repro.protocols.bt import BinaryTree
from repro.protocols.fsa import FramedSlottedAloha
from repro.sim.metrics import InventoryStats, slot_counts
from repro.sim.reader import (
    InventoryResult,
    Reader,
    _true_type,
    record_effective,
)
from repro.sim.trace import SlotRecord
from repro.tags.population import TagPopulation

N = 600
FRAME = 256
#: Binary Tree population of the disabled-overhead gate (~870 slots).
TREE_N = 300
SEED = 2010
ROUNDS = 10


@pytest.fixture(autouse=True)
def clean_obs():
    obs.disable()
    obs.reset()
    yield
    obs.disable()
    obs.reset()


def baseline_inventory(reader, tags, protocol) -> InventoryResult:
    """The live Reader's ``_run`` and ``_run_slot`` without hooks.

    The same loop with the obs hook sites (the ``inventory``/``frame``
    spans, the per-slot and per-frame slot events, the ``profile`` timer
    and the closing inventory record) and the invariant hook sites taken
    out; :func:`test_disabled_overhead_under_5_percent` and
    ``test_ablation_verify`` assert it still produces the identical trace
    before trusting the timing.
    """
    detector = reader.detector
    detector.reset_instrumentation()
    trace: list[SlotRecord] = []
    identified: list[int] = []
    lost: list[int] = []
    time_ = 0.0
    protocol.start(tags)
    batch_frames = not reader.channel.capture_probability
    bits = detector.packed_bits
    index = 0
    while not protocol.finished:
        if batch_frames:
            partition = protocol.frame_partition()
            if (
                partition is not None
                and index + len(partition) <= reader.max_slots
            ):
                time_, index = reader._run_frame(
                    index, time_, protocol, partition, bits,
                    identified, lost, trace,
                )
                continue
        if index >= reader.max_slots:
            raise RuntimeError("inventory exceeded max_slots")
        responders = protocol.responders()
        time_, record = _baseline_slot(
            reader, index, time_, protocol, responders, identified, lost,
            bits,
        )
        trace.append(record)
        protocol.feedback(record_effective(record, reader.policy), responders)
        index += 1
    stats = InventoryStats.from_trace(
        trace,
        n_tags=len(tags),
        frames=protocol.frames_started,
        id_bits=reader.timing.id_bits,
        tau=reader.timing.tau,
    )
    return InventoryResult(
        trace=trace, stats=stats, identified_ids=identified, lost_ids=lost
    )


def _baseline_slot(
    reader, index, time_, protocol, responders, identified, lost, bits
):
    """``Reader._run_slot`` without its slot event and invariant check."""
    detector = reader.detector
    payload = detector.contention_payload_packed
    value = reader.channel.transmit_packed(
        [payload(t.tag_id, t.rng) for t in responders], bits
    )
    outcome = detector.classify_packed(value, len(responders))
    true_type = _true_type(len(responders))
    detected = outcome.slot_type
    duration = reader.timing.slot_duration(detector, detected)
    time_ += duration
    identified_tag = None
    lost_count = 0
    captured_idx = reader.channel.last_capture_index
    captured = (
        captured_idx is not None
        and true_type is SlotType.COLLIDED
        and detected is SlotType.SINGLE
    )
    if captured:
        tag = responders[captured_idx]
        tag.mark_identified(time_)
        identified.append(tag.tag_id)
        identified_tag = tag.tag_id
    elif detected is SlotType.SINGLE:
        if true_type is SlotType.SINGLE:
            tag = responders[0]
            tag.mark_identified(time_)
            identified.append(tag.tag_id)
            identified_tag = tag.tag_id
        elif reader.policy == "lost":
            for tag in responders:
                tag.identified = True
                tag.lost = True
                lost.append(tag.tag_id)
            lost_count = len(responders)
    record = SlotRecord(
        index=index,
        frame=max(1, protocol.frames_started),
        n_responders=len(responders),
        true_type=true_type,
        detected_type=detected,
        duration=duration,
        end_time=time_,
        identified_tag=identified_tag,
        lost_tags=lost_count,
        captured=captured,
    )
    return time_, record


def _fresh_workload():
    pop = TagPopulation(N, rng=make_rng(SEED))
    return pop.tags, FramedSlottedAloha(FRAME)


def _fresh_tree_workload():
    """A per-slot workload: every Binary Tree slot runs ``_run_slot``."""
    pop = TagPopulation(TREE_N, rng=make_rng(SEED))
    return pop.tags, BinaryTree()


def _time_one(runner, workload=_fresh_workload) -> float:
    tags, protocol = workload()
    start = time.perf_counter()
    runner(tags, protocol)
    return time.perf_counter() - start


@pytest.mark.benchmark(group="obs-overhead")
def test_disabled_overhead_under_5_percent(benchmark):
    """With obs disabled the live loop must match the hook-free copy:
    identical trace, and within 5% of its wall time (min-of-N), on a
    per-slot protocol where the hooks run once per slot."""
    reader = Reader(QCDDetector(8), TimingModel())
    assert not obs.is_enabled()

    tags, protocol = _fresh_tree_workload()
    expected = baseline_inventory(reader, tags, protocol)
    tags, protocol = _fresh_tree_workload()
    got = reader.run_inventory(tags, protocol)
    assert got.trace == expected.trace  # same process, fair timing
    assert got.stats == expected.stats

    baseline = lambda t, p: baseline_inventory(reader, t, p)  # noqa: E731

    def timed(runner) -> float:
        return _time_one(runner, _fresh_tree_workload)

    timed(baseline)  # warm both paths
    timed(reader.run_inventory)

    # Interleave the two loops so clock drift hits both equally; min-of-N
    # discards scheduler noise (noise only ever inflates a sample).
    base_min = inst_min = float("inf")
    for _ in range(ROUNDS):
        base_min = min(base_min, timed(baseline))
        inst_min = min(inst_min, timed(reader.run_inventory))

    def setup():
        return _fresh_tree_workload(), {}

    benchmark.pedantic(
        reader.run_inventory, setup=setup, rounds=3, iterations=1
    )
    overhead = inst_min / base_min - 1.0
    benchmark.extra_info["baseline_min_s"] = base_min
    benchmark.extra_info["overhead_fraction"] = overhead
    assert overhead < 0.05, (
        f"disabled-obs overhead {overhead:.1%} "
        f"(instrumented {inst_min:.4f}s vs hook-free {base_min:.4f}s)"
    )


@pytest.mark.benchmark(group="obs-overhead")
def test_enabled_counters_match_ground_truth(benchmark):
    """Enabled mode: timed for the record, counters asserted exact."""
    reader = Reader(QCDDetector(8), TimingModel())
    obs.enable()

    def setup():
        obs.reset()  # keep counters at exactly one run's worth
        return _fresh_workload(), {}

    result = benchmark.pedantic(
        reader.run_inventory, setup=setup, rounds=3, iterations=1
    )
    truth = slot_counts(result.trace)
    got = {k: int(v) for k, v in obs.slot_totals(by="true_type").items() if v}
    want = {
        "IDLE": truth.idle,
        "SINGLE": truth.single,
        "COLLIDED": truth.collided,
    }
    assert got == {k: v for k, v in want.items() if v}
    registry = obs.STATE.registry
    from repro.obs import instruments as inst

    assert registry.get(inst.IDENTIFIED).value == len(result.identified_ids)
    assert registry.get(inst.FRAMES).labels(engine="reader").value == (
        result.stats.frames
    )


#: Enabled-mode budget for a framed FSA inventory (default ``NullSink``),
#: QCD-8 or CRC-CD at the paper's 64-bit IDs: the frame-batched tier
#: keeps running under obs, so the toll is per-frame spans plus one bulk
#: counter pass per frame.  Measured at +6-13% (QCD-8) and +5-13%
#: (CRC-CD) on a 2-vCPU Xeon (Python 3.11); the per-slot object path
#: that enabled obs used to force costs ~+220% on the QCD workload, so a
#: re-gate onto that path fails here.
ENABLED_BUDGET = 0.5


def _tier_calls(reader: Reader) -> dict[str, int]:
    """How often one obs-enabled inventory entered the Reader's
    frame-batched tier (``_run_frame``) and its per-slot tiers
    (``_run_slot``)."""
    calls = dict.fromkeys(("_run_frame", "_run_slot"), 0)

    def spy(name):
        real = getattr(reader, name)

        def counted(*args, **kwargs):
            calls[name] += 1
            return real(*args, **kwargs)

        return counted

    for name in calls:
        setattr(reader, name, spy(name))
    obs.enable()
    try:
        reader.run_inventory(*_fresh_workload())
    finally:
        obs.disable()
        for name in calls:
            delattr(reader, name)
    return calls


def _assert_enabled_overhead(benchmark, reader: Reader) -> None:
    """Enabled obs must not push the framed reader off its batched
    path: every frame runs batched (a spy on the tier entry points), and
    the interleaved min-of-N against the same reader with obs off stays
    within budget.  The ratio alone cannot tell the tiers apart on
    CRC-CD, whose object path read +31-40 %."""
    calls = _tier_calls(reader)
    assert calls["_run_frame"] > 0 and calls["_run_slot"] == 0, (
        f"enabled obs moved framed {reader.detector.name} FSA off the "
        f"frame-batched tier: {calls}"
    )

    def timed(enabled: bool) -> float:
        if enabled:
            obs.enable()
        else:
            obs.disable()
        try:
            return _time_one(reader.run_inventory)
        finally:
            obs.disable()

    timed(False)  # warm both modes
    timed(True)
    off_min = on_min = float("inf")
    for _ in range(ROUNDS):
        off_min = min(off_min, timed(False))
        on_min = min(on_min, timed(True))

    def setup():
        obs.enable()
        return _fresh_workload(), {}

    benchmark.pedantic(
        reader.run_inventory, setup=setup, rounds=3, iterations=1
    )
    overhead = on_min / off_min - 1.0
    benchmark.extra_info["disabled_min_s"] = off_min
    benchmark.extra_info["overhead_fraction"] = overhead
    assert overhead < ENABLED_BUDGET, (
        f"enabled-obs overhead {overhead:.1%} on framed "
        f"{reader.detector.name} FSA (enabled {on_min:.4f}s vs "
        f"disabled {off_min:.4f}s)"
    )


@pytest.mark.benchmark(group="obs-overhead")
def test_enabled_overhead_on_framed_qcd(benchmark):
    _assert_enabled_overhead(benchmark, Reader(QCDDetector(8), TimingModel()))


@pytest.mark.benchmark(group="obs-overhead")
def test_enabled_overhead_on_framed_crc(benchmark):
    """CRC-CD's 96-bit payloads batch in an object arena, so the paper's
    baseline gets the same budget."""
    reader = Reader(CRCCDDetector(id_bits=64), TimingModel())
    _assert_enabled_overhead(benchmark, reader)
