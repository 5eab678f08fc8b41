"""Metrics tests: slot counts, throughput, UR, accuracy, delay, EI."""

from __future__ import annotations

import math

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.core.detector import SlotType
from repro.sim.metrics import (
    DelayStats,
    InventoryStats,
    SlotCounts,
    delay_stats,
    detection_accuracy,
    efficiency_improvement,
    slot_counts,
    utilization_rate,
)
from repro.sim.trace import SlotRecord


def rec(
    i,
    true_type,
    detected=None,
    duration=10.0,
    end=None,
    tag=None,
    n=None,
):
    if detected is None:
        detected = true_type
    if n is None:
        n = {SlotType.IDLE: 0, SlotType.SINGLE: 1, SlotType.COLLIDED: 2}[true_type]
    return SlotRecord(
        index=i,
        frame=1,
        n_responders=n,
        true_type=true_type,
        detected_type=detected,
        duration=duration,
        end_time=end if end is not None else (i + 1) * duration,
        identified_tag=tag,
    )


TRACE = [
    rec(0, SlotType.COLLIDED),
    rec(1, SlotType.SINGLE, tag=7),
    rec(2, SlotType.IDLE),
    rec(3, SlotType.SINGLE, tag=9),
    rec(4, SlotType.COLLIDED, detected=SlotType.SINGLE),  # missed
]


class TestSlotCounts:
    def test_true_counts(self):
        counts = slot_counts(TRACE)
        assert (counts.idle, counts.single, counts.collided) == (1, 2, 2)

    def test_detected_counts(self):
        counts = slot_counts(TRACE, detected=True)
        assert (counts.idle, counts.single, counts.collided) == (1, 3, 1)

    def test_throughput(self):
        assert SlotCounts(1, 2, 2).throughput == pytest.approx(0.4)

    def test_empty_throughput(self):
        assert SlotCounts(0, 0, 0).throughput == 0.0


class TestAccuracy:
    def test_partial(self):
        assert detection_accuracy(TRACE) == pytest.approx(0.5)

    def test_perfect_when_no_collisions(self):
        assert detection_accuracy([rec(0, SlotType.IDLE)]) == 1.0

    def test_all_caught(self):
        assert detection_accuracy([rec(0, SlotType.COLLIDED)]) == 1.0


class TestDelay:
    def test_delays_from_identified_slots(self):
        stats = delay_stats(TRACE)
        assert stats.count == 2
        assert stats.mean == pytest.approx((20.0 + 40.0) / 2)
        assert stats.minimum == 20.0
        assert stats.maximum == 40.0

    def test_empty(self):
        stats = DelayStats.from_delays([])
        assert stats.count == 0
        assert math.isnan(stats.mean)

    def test_median_odd_even(self):
        assert DelayStats.from_delays([1, 2, 3]).median == 2
        assert DelayStats.from_delays([1, 2, 3, 4]).median == 2.5

    def test_std(self):
        s = DelayStats.from_delays([2.0, 4.0])
        assert s.std == pytest.approx(1.0)


class TestUtilization:
    def test_formula(self):
        # 2 singles x 64 bits / 50 total airtime units
        ur = utilization_rate(TRACE, id_bits=64, tau=1.0)
        assert ur == pytest.approx(2 * 64 / 50.0)

    def test_zero_time(self):
        assert utilization_rate([], 64) == 0.0


class TestEI:
    def test_formula(self):
        assert efficiency_improvement(100.0, 40.0) == pytest.approx(0.6)

    def test_zero_baseline(self):
        with pytest.raises(ValueError):
            efficiency_improvement(0.0, 1.0)

    def test_negative_improvement_allowed(self):
        assert efficiency_improvement(10.0, 12.0) == pytest.approx(-0.2)


class TestInventoryStats:
    def test_from_trace(self):
        stats = InventoryStats.from_trace(TRACE, n_tags=2, frames=1, id_bits=64)
        assert stats.throughput == pytest.approx(0.4)
        assert stats.missed_collisions == 1
        assert stats.false_collisions == 0
        assert stats.accuracy == pytest.approx(0.5)
        assert stats.total_time == pytest.approx(50.0)
        assert stats.lost_tags == 0

    def test_false_collision_counted(self):
        trace = [rec(0, SlotType.SINGLE, detected=SlotType.COLLIDED, tag=None)]
        stats = InventoryStats.from_trace(trace, 1, 1, 64)
        assert stats.false_collisions == 1


# ----------------------------------------------------------------------
# The one-pass ``from_trace`` against the multi-pass formulas it replaced,
# copied here as the oracle.


def _oracle_counts(trace, detected):
    idle = single = collided = 0
    for rec_ in trace:
        kind = rec_.detected_type if detected else rec_.true_type
        if kind is SlotType.IDLE:
            idle += 1
        elif kind is SlotType.SINGLE:
            single += 1
        else:
            collided += 1
    return SlotCounts(idle, single, collided)


def _oracle_accuracy(trace):
    n_c = sum(
        1
        for r in trace
        if r.true_type is SlotType.COLLIDED and not r.captured
    )
    if n_c == 0:
        return 1.0
    caught = sum(
        1
        for r in trace
        if r.true_type is SlotType.COLLIDED
        and r.detected_type is SlotType.COLLIDED
    )
    return caught / n_c


def _oracle_utilization(trace, id_bits, tau):
    total = sum(r.duration for r in trace)
    if total == 0:
        return 0.0
    n1 = sum(1 for r in trace if r.true_type is SlotType.SINGLE)
    return n1 * id_bits * tau / total


def oracle_stats(trace, n_tags, frames, id_bits, tau=1.0):
    return InventoryStats(
        n_tags=n_tags,
        frames=frames,
        true_counts=_oracle_counts(trace, detected=False),
        detected_counts=_oracle_counts(trace, detected=True),
        total_time=sum(r.duration for r in trace),
        accuracy=_oracle_accuracy(trace),
        delay=DelayStats.from_delays(
            [r.end_time for r in trace if r.identified_tag is not None]
        ),
        utilization=_oracle_utilization(trace, id_bits, tau),
        missed_collisions=sum(
            1
            for r in trace
            if r.true_type is SlotType.COLLIDED
            and r.detected_type is SlotType.SINGLE
            and not r.captured
        ),
        false_collisions=sum(
            1
            for r in trace
            if r.true_type is SlotType.SINGLE
            and r.detected_type is SlotType.COLLIDED
        ),
        lost_tags=sum(r.lost_tags for r in trace),
        captures=sum(1 for r in trace if r.captured),
    )


#: Durations whose float sum depends on the order and grouping of the
#: additions, so a pairwise or compensated sum reads differently.
_DURATIONS = st.one_of(
    st.sampled_from([0.1, 0.2, 0.7, 1 / 3, 2 / 3, 1e-3, 1e16, 1e-16]),
    st.floats(min_value=0.0, max_value=1e9, allow_nan=False),
)

_RECORD = st.builds(
    lambda true, detected, duration, end, tag, lost, captured: SlotRecord(
        index=0,
        frame=1,
        n_responders=int(true),
        true_type=true,
        detected_type=detected,
        duration=duration,
        end_time=end,
        identified_tag=tag,
        lost_tags=lost,
        captured=captured,
    ),
    st.sampled_from(SlotType),
    st.sampled_from(SlotType),
    _DURATIONS,
    st.floats(min_value=0.0, max_value=1e9, allow_nan=False),
    st.none() | st.integers(0, 2**64 - 1),
    st.sampled_from([0, 0, 0, 1, 3]),
    st.booleans(),
)

#: 1e16 then ten 1.0s: the left fold (Python 3.11's ``sum``) reads 1e16,
#: the compensated sum of Python >= 3.12 1.000000000000001e16, and numpy's
#: pairwise sum 1.0000000000000008e16, so the example pins the summation
#: on every supported Python.
_ORDERED = [
    SlotRecord(i, 1, 0, SlotType.IDLE, SlotType.IDLE, d, float(i))
    for i, d in enumerate([1e16] + [1.0] * 10)
]


class TestOnePassFromTrace:
    @settings(max_examples=400, deadline=None)
    @given(
        trace=st.lists(_RECORD, max_size=60),
        id_bits=st.sampled_from([16, 64, 96]),
        tau=st.sampled_from([1.0, 0.3, 2.5]),
    )
    @example(trace=_ORDERED, id_bits=64, tau=1.0)
    def test_equals_multi_pass_formulas(self, trace, id_bits, tau):
        got = InventoryStats.from_trace(trace, 7, 3, id_bits, tau)
        want = oracle_stats(trace, 7, 3, id_bits, tau)
        # repr: NaN delay fields compare unequal, and repr pins every bit.
        assert repr(got) == repr(want)
