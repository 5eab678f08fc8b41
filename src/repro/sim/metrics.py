"""Metrics derived from inventory traces.

Implements every quantity the paper's evaluation reports:

* slot counts N0 / N1 / Nc and **throughput** λ = N1 / (N0+N1+Nc)
  (Section III, Tables VII/VIII);
* **accuracy** = correctly-detected collided slots / true collided slots
  (Section VI-B, Figure 5);
* **utilization rate** UR = N1·l_id·τ / total airtime (Section VI-C,
  Table IX);
* **identification delay** per tag and its distribution (Section VI-D,
  Figure 6);
* **transmission time** (Section VI-E, Figure 7) and the
  **efficiency improvement** EI = (t_base − t_qcd) / t_base (Figure 8).

All functions are pure over the trace so they compose with both the exact
reader and the vectorized kernels (which synthesize equivalent traces).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from repro.core.detector import SlotType
from repro.sim.trace import SlotRecord, SlotTrace

__all__ = [
    "SlotCounts",
    "DelayStats",
    "InventoryStats",
    "slot_counts",
    "detection_accuracy",
    "delay_stats",
    "utilization_rate",
    "efficiency_improvement",
]


@dataclass(frozen=True)
class SlotCounts:
    """Idle / single / collided totals."""

    idle: int
    single: int
    collided: int

    @property
    def total(self) -> int:
        return self.idle + self.single + self.collided

    @property
    def throughput(self) -> float:
        """λ = N1 / (N0 + N1 + Nc); 0 for an empty trace."""
        return self.single / self.total if self.total else 0.0


@dataclass(frozen=True)
class DelayStats:
    """Summary of per-tag identification delays."""

    count: int
    mean: float
    std: float
    minimum: float
    maximum: float
    median: float

    @classmethod
    def from_delays(cls, delays: Sequence[float]) -> "DelayStats":
        if not delays:
            return cls(0, math.nan, math.nan, math.nan, math.nan, math.nan)
        n = len(delays)
        mean = sum(delays) / n
        var = sum((d - mean) ** 2 for d in delays) / n
        ordered = sorted(delays)
        mid = n // 2
        median = (
            ordered[mid] if n % 2 else 0.5 * (ordered[mid - 1] + ordered[mid])
        )
        return cls(n, mean, math.sqrt(var), ordered[0], ordered[-1], median)

    @classmethod
    def from_array(
        cls, delays: np.ndarray, assume_sorted: bool = False
    ) -> "DelayStats":
        """Vectorized :meth:`from_delays`, bit-identical to it.

        ``cumsum`` accumulates left to right exactly like ``sum()`` over a
        list, and the centered squares are the same elementwise IEEE
        operations, so every field matches ``from_delays(delays.tolist())``
        bit for bit -- which is what lets the batched kernels skip the
        Python-loop statistics without perturbing any pinned result.

        ``assume_sorted=True`` skips the order-statistics sort; the caller
        promises the array is already ascending (the inventory kernels emit
        identification delays in slot order, which is ascending airtime).
        """
        arr = np.asarray(delays, dtype=np.float64)
        n = int(arr.size)
        if n == 0:
            return cls(0, math.nan, math.nan, math.nan, math.nan, math.nan)
        mean = float(np.cumsum(arr)[-1]) / n
        var = float(np.cumsum((arr - mean) ** 2)[-1]) / n
        ordered = arr if assume_sorted else np.sort(arr)
        mid = n // 2
        median = (
            float(ordered[mid])
            if n % 2
            else 0.5 * (float(ordered[mid - 1]) + float(ordered[mid]))
        )
        return cls(
            n,
            mean,
            math.sqrt(var),
            float(ordered[0]),
            float(ordered[-1]),
            median,
        )


def slot_counts(
    trace: Sequence[SlotRecord], detected: bool = False
) -> SlotCounts:
    """Count slots by true type (default) or detected type."""
    trace = SlotTrace.from_records(trace)
    kinds = trace.detected_type if detected else trace.true_type
    idle = kinds.count(SlotType.IDLE)
    single = kinds.count(SlotType.SINGLE)
    return SlotCounts(idle, single, len(kinds) - idle - single)


def detection_accuracy(trace: Sequence[SlotRecord]) -> float:
    """Fraction of truly collided slots the detector caught (Section VI-B).

    Captured slots are excluded: the detector never saw a superposition
    there, so its single verdict is correct, not a miss.  Returns 1.0 when
    no (non-captured) collision occurred.
    """
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


def delay_stats(trace: Sequence[SlotRecord]) -> DelayStats:
    """Identification delay of each tag: elapsed airtime from the start of
    the inventory to the end of the slot that identified it."""
    delays = [r.end_time for r in trace if r.identified_tag is not None]
    return DelayStats.from_delays(delays)


def utilization_rate(
    trace: Sequence[SlotRecord], id_bits: int, tau: float = 1.0
) -> float:
    """UR = N1 · l_id · τ / total airtime (Section VI-C).

    The numerator is the time spent transmitting actual tag IDs; the
    denominator is everything, including preambles, CRCs and dead air.
    """
    total = sum(r.duration for r in trace)
    if total == 0:
        return 0.0
    n1 = sum(1 for r in trace if r.true_type is SlotType.SINGLE)
    return n1 * id_bits * tau / total


def efficiency_improvement(t_base: float, t_new: float) -> float:
    """EI = (t_base − t_new) / t_base (Section V)."""
    if t_base <= 0:
        raise ValueError("baseline time must be positive")
    return (t_base - t_new) / t_base


@dataclass(frozen=True)
class InventoryStats:
    """Everything the paper reports about one inventory run."""

    n_tags: int
    frames: int
    true_counts: SlotCounts
    detected_counts: SlotCounts
    total_time: float
    accuracy: float
    delay: DelayStats
    utilization: float
    missed_collisions: int
    false_collisions: int
    lost_tags: int
    captures: int = 0

    @property
    def throughput(self) -> float:
        return self.true_counts.throughput

    @classmethod
    def from_trace(
        cls,
        trace: Sequence[SlotRecord],
        n_tags: int,
        frames: int,
        id_bits: int,
        tau: float = 1.0,
    ) -> "InventoryStats":
        """Every field from the columns of ``trace`` (a list of records is
        converted first).

        Equal, field for field, to the pure functions above applied one
        by one.  The airtime total stays the builtin ``sum`` over the
        durations in trace order: on Python >= 3.12 it is a compensated
        sum, so neither a running ``+=`` nor ``np.sum`` matches it on
        every supported Python.
        """
        trace = SlotTrace.from_records(trace)
        # counts[captured][true][detected]: slots by flag and both types.
        codes = (
            9 * np.frombuffer(trace.captured, np.int8)
            + 3 * np.frombuffer(trace.true_type, np.int8)
            + np.frombuffer(trace.detected_type, np.int8)
        )
        counts = np.bincount(codes, minlength=18).reshape(2, 3, 3).tolist()
        plain, captured = counts
        both = [[a + b for a, b in zip(*rows)] for rows in zip(plain, captured)]
        true = SlotCounts(*map(sum, both))
        det = SlotCounts(*map(sum, zip(*both)))
        # Captured slots count neither as misses nor in accuracy's base.
        collided = sum(plain[SlotType.COLLIDED])
        total = sum(trace.duration)
        delays = np.frombuffer(trace.end_time, np.float64)[
            np.frombuffer(trace.identified_rows, np.int64)
        ].tolist()
        return cls(
            n_tags=n_tags,
            frames=frames,
            true_counts=true,
            detected_counts=det,
            total_time=total,
            accuracy=(
                both[SlotType.COLLIDED][SlotType.COLLIDED] / collided
                if collided
                else 1.0
            ),
            delay=DelayStats.from_delays(delays),
            utilization=true.single * id_bits * tau / total if total else 0.0,
            missed_collisions=plain[SlotType.COLLIDED][SlotType.SINGLE],
            false_collisions=both[SlotType.SINGLE][SlotType.COLLIDED],
            lost_tags=int(np.frombuffer(trace.lost_tags, np.int64).sum()),
            captures=sum(map(sum, captured)),
        )
