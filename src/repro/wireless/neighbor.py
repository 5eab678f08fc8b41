"""Slotted ALOHA neighbor discovery with pluggable collision detection.

The classic "birthday protocol" (Vasudevan et al., MobiCom 2009 -- the
paper's reference [26]): ``n`` nodes share a slotted channel; in every
slot each node independently *transmits* its announcement with probability
``p`` (optimal: 1/n) and *listens* otherwise.  A listener discovers the
transmitter iff exactly one node transmitted.  Full discovery is a coupon
collector: node i must catch each neighbor j as the lone transmitter while
i itself is listening, which happens per slot with probability

    q = p · (1 − p)^(n−1)

so ``E[slots to hear everyone] ≈ H_{n−1} / q`` and, with p = 1/n,
``q ≈ 1/(e·n)`` -- the same 1/e that caps FSA throughput in Lemma 1.

Where QCD enters: discovery *latency* is fixed by the contention process,
but a listener's **radio-on time** is not.  Announcements are framed like
RFID replies -- with CRC-CD framing a listener demodulates
``l_id + l_crc`` bits in every slot before it can validate or discard;
with QCD framing it reads the 2l-bit collision preamble, classifies the
slot, and sleeps through the remainder unless the slot is single.  The
same Theorem 1 guarantees the classification, with the same
``(2^l − 1)^{−(m−1)}`` residual miss rate (a missed collision costs the
listener a garbage reception, counted separately).

The simulation is vectorized: one Bernoulli draw matrix per slot batch,
and the discovery matrix updates only on single-transmitter slots.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from repro.core.detector import CollisionDetector, SlotType
from repro.core.timing import TimingModel

__all__ = [
    "DiscoveryResult",
    "run_discovery",
    "expected_discovery_slots",
    "optimal_tx_probability",
]


@dataclass(frozen=True)
class DiscoveryResult:
    """Outcome of one neighbor-discovery run.

    Attributes
    ----------
    n_nodes / slots:
        Population and total slots until full discovery (or the cap).
    complete:
        Whether every node discovered every neighbor.
    discovery_slot:
        Slot index at which each node completed (length ``n_nodes``;
        -1 when incomplete).
    idle_slots / single_slots / collided_slots:
        Channel-wide slot mix.
    listen_time:
        Total radio-on time across all listeners (the energy proxy),
        per the detector's slot-classification framing.
    garbage_receptions:
        Collided slots a listener mistook for singles (QCD misses) and
        demodulated in full.
    """

    n_nodes: int
    slots: int
    complete: bool
    discovery_slot: np.ndarray
    idle_slots: int
    single_slots: int
    collided_slots: int
    listen_time: float
    garbage_receptions: int

    @property
    def mean_discovery_slot(self) -> float:
        done = self.discovery_slot[self.discovery_slot >= 0]
        return float(done.mean()) if done.size else math.nan

    @property
    def listen_time_per_node(self) -> float:
        return self.listen_time / self.n_nodes if self.n_nodes else 0.0


def optimal_tx_probability(n: int) -> float:
    """p = 1/n maximizes the single-transmitter probability (same
    derivative argument as Lemma 1)."""
    if n < 1:
        raise ValueError("n must be >= 1")
    return 1.0 / n


def expected_discovery_slots(n: int, p: float | None = None) -> float:
    """Coupon-collector estimate of E[slots] until one node has heard all
    n−1 neighbors: ``H_{n−1} / (p·(1−p)^{n−1})``."""
    if n < 2:
        return 0.0
    if p is None:
        p = optimal_tx_probability(n)
    if not 0.0 < p < 1.0:
        raise ValueError("p must be in (0, 1)")
    q = p * (1.0 - p) ** (n - 1)
    harmonic = sum(1.0 / k for k in range(1, n))
    return harmonic / q


def run_discovery(
    n: int,
    detector: CollisionDetector,
    timing: TimingModel,
    rng: np.random.Generator,
    tx_prob: float | None = None,
    max_slots: int = 2_000_000,
) -> DiscoveryResult:
    """Simulate the birthday protocol until full discovery.

    ``listen_time`` charges each listener
    ``timing.slot_duration(detector, detected_type)`` per slot -- i.e. a
    CRC-CD listener rides out the full announcement window regardless,
    while a QCD listener stops at the preamble for idle/collided slots.
    """
    if n < 2:
        raise ValueError("neighbor discovery needs n >= 2")
    p = tx_prob if tx_prob is not None else optimal_tx_probability(n)
    if not 0.0 < p < 1.0:
        raise ValueError("tx_prob must be in (0, 1)")
    dur = {
        kind: timing.slot_duration(detector, kind)
        for kind in (SlotType.IDLE, SlotType.SINGLE, SlotType.COLLIDED)
    }

    heard = np.zeros((n, n), dtype=bool)
    np.fill_diagonal(heard, True)
    discovery_slot = np.full(n, -1, dtype=np.int64)
    idle = single = collided = 0
    garbage = 0
    listen_time = 0.0
    slot = 0
    remaining_nodes = n

    while remaining_nodes and slot < max_slots:
        tx_mask = rng.random(n) < p
        m = int(tx_mask.sum())
        listeners = n - m
        if m == 0:
            idle += 1
            listen_time += listeners * dur[SlotType.IDLE]
        elif m == 1:
            single += 1
            listen_time += listeners * dur[SlotType.SINGLE]
            speaker = int(np.nonzero(tx_mask)[0][0])
            newly = ~heard[:, speaker] & ~tx_mask
            heard[newly, speaker] = True
            # Only single slots can complete a node's collection.
            done_now = np.nonzero(
                newly & (discovery_slot < 0) & heard.all(axis=1)
            )[0]
            if done_now.size:
                discovery_slot[done_now] = slot
                remaining_nodes -= int(done_now.size)
        else:
            collided += 1
            if rng.random() < detector.miss_probability(m):
                # Listeners misread the slot as single and demodulate the
                # garbled announcement in full.
                garbage += listeners
                listen_time += listeners * dur[SlotType.SINGLE]
            else:
                listen_time += listeners * dur[SlotType.COLLIDED]
        slot += 1

    return DiscoveryResult(
        n_nodes=n,
        slots=slot,
        complete=remaining_nodes == 0,
        discovery_slot=discovery_slot,
        idle_slots=idle,
        single_slots=single,
        collided_slots=collided,
        listen_time=listen_time,
        garbage_receptions=garbage,
    )
