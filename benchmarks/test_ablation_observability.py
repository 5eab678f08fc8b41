"""Ablation -- cost of the repro.obs instrumentation on the exact reader.

The observability hooks in the hot slot loop must be near-free when
:mod:`repro.obs` is disabled: per slot they amount to one attribute load
and a falsy branch.  To quantify that, this module freezes a replica of
the *seed's* uninstrumented slot loop as the baseline, checks it still
produces the identical trace (so the comparison is apples-to-apples),
and asserts the disabled-mode overhead stays under 5%.

Enabled mode is timed too, and its counters are asserted against the
``slot_counts`` trace ground truth.  With the default ``NullSink`` the
framed QCD reader must stay on its frame-batched tier, so enabled mode
gets a budget of its own (:data:`ENABLED_BUDGET`).
"""

from __future__ import annotations

import time

import pytest

from repro import obs
from repro.bits.rng import make_rng
from repro.core.detector import SlotType
from repro.core.ideal import IdealDetector
from repro.core.qcd import QCDDetector
from repro.core.timing import TimingModel
from repro.protocols.fsa import FramedSlottedAloha
from repro.sim.metrics import InventoryStats, slot_counts
from repro.sim.reader import InventoryResult, Reader, record_effective
from repro.sim.trace import SlotRecord
from repro.tags.population import TagPopulation

N = 600
FRAME = 256
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
    """The seed's slot loop, frozen without any observability hooks.

    Byte-for-byte the pre-instrumentation ``Reader._run``/``_run_slot``
    logic; :func:`test_disabled_overhead_under_5_percent` asserts it
    still produces the identical trace before trusting the timing.
    """
    detector = reader.detector
    detector.reset_instrumentation()
    trace: list[SlotRecord] = []
    identified: list[int] = []
    lost: list[int] = []
    now = 0.0
    protocol.start(tags)
    index = 0
    while not protocol.finished:
        if index >= reader.max_slots:
            raise RuntimeError("inventory exceeded max_slots")
        responders = protocol.responders()
        payloads = [
            detector.contention_payload(t.tag_id, t.rng) for t in responders
        ]
        signal = reader.channel.transmit(payloads)
        if isinstance(detector, IdealDetector):
            sole = responders[0].tag_id if len(responders) == 1 else None
            detector.observe_transmitters(len(responders), sole)
        outcome = detector.classify(signal)
        if len(responders) == 0:
            true_type = SlotType.IDLE
        elif len(responders) == 1:
            true_type = SlotType.SINGLE
        else:
            true_type = SlotType.COLLIDED
        detected = outcome.slot_type
        duration = reader.timing.slot_duration(detector, detected)
        now += duration
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
            tag.mark_identified(now)
            identified.append(tag.tag_id)
            identified_tag = tag.tag_id
        elif detected is SlotType.SINGLE:
            if true_type is SlotType.SINGLE:
                tag = responders[0]
                tag.mark_identified(now)
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
            end_time=now,
            identified_tag=identified_tag,
            lost_tags=lost_count,
            captured=captured,
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


def _fresh_workload():
    pop = TagPopulation(N, rng=make_rng(SEED))
    return pop.tags, FramedSlottedAloha(FRAME)


def _time_one(runner) -> float:
    tags, protocol = _fresh_workload()
    start = time.perf_counter()
    runner(tags, protocol)
    return time.perf_counter() - start


@pytest.mark.benchmark(group="obs-overhead")
def test_disabled_overhead_under_5_percent(benchmark):
    """With obs disabled the instrumented loop must match the seed loop:
    identical trace, and within 5% of its wall time (min-of-N)."""
    reader = Reader(QCDDetector(8), TimingModel())
    assert not obs.is_enabled()

    tags, protocol = _fresh_workload()
    expected = baseline_inventory(reader, tags, protocol)
    tags, protocol = _fresh_workload()
    got = reader.run_inventory(tags, protocol)
    assert got.trace == expected.trace  # same process, fair timing

    baseline = lambda t, p: baseline_inventory(reader, t, p)  # noqa: E731
    _time_one(baseline)  # warm both paths
    _time_one(reader.run_inventory)

    # Interleave the two loops so clock drift hits both equally; min-of-N
    # discards scheduler noise (noise only ever inflates a sample).
    base_min = inst_min = float("inf")
    for _ in range(ROUNDS):
        base_min = min(base_min, _time_one(baseline))
        inst_min = min(inst_min, _time_one(reader.run_inventory))

    def setup():
        return _fresh_workload(), {}

    benchmark.pedantic(
        reader.run_inventory, setup=setup, rounds=3, iterations=1
    )
    overhead = inst_min / base_min - 1.0
    benchmark.extra_info["baseline_min_s"] = base_min
    benchmark.extra_info["overhead_fraction"] = overhead
    assert overhead < 0.05, (
        f"disabled-obs overhead {overhead:.1%} "
        f"(instrumented {inst_min:.4f}s vs seed {base_min:.4f}s)"
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


#: Enabled-mode budget for a framed QCD-8 FSA inventory (default
#: ``NullSink``): the frame-batched tier keeps running under obs, so the
#: toll is per-frame spans plus one bulk counter pass per frame.
#: Measured at +6-13% on a 2-vCPU Xeon (Python 3.11); the per-slot
#: object path that enabled obs used to force costs ~+220% on this
#: workload, so a re-gate onto that path fails here.
ENABLED_BUDGET = 0.5


@pytest.mark.benchmark(group="obs-overhead")
def test_enabled_overhead_on_framed_qcd(benchmark):
    """Enabled obs must not push the framed QCD reader off its batched
    path: interleaved min-of-N against the same reader with obs off."""
    reader = Reader(QCDDetector(8), TimingModel())

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
        f"enabled-obs overhead {overhead:.1%} on framed QCD-8 FSA "
        f"(enabled {on_min:.4f}s vs disabled {off_min:.4f}s)"
    )
