"""Sensor-network coverage & connectivity via local neighbor discovery.

The paper's future work also names "coverage ... of sensor networks" and
ad-hoc networks (§VII, refs [27][29][31]).  A deployed sensor field
verifies its own coverage by each node discovering the neighbors inside
its radio range and reporting the link set; the network is usable iff the
discovered communication graph is connected.

Unlike the clique of :mod:`repro.wireless.neighbor`, interference here is
*local*: a listener only superposes the transmitters within its own
range, so one slot can yield discoveries in one part of the field and
collisions in another.  QCD preamble framing plays the same role as in
the clique -- listeners classify each local slot from 2l bits and sleep
through garbage -- which is precisely the energy economy a battery-run
field cares about.

The simulator is adjacency-matrix vectorized: per slot, one Bernoulli
transmit vector, neighbor counts by a boolean mat-vec, and per-listener
slot types from the counts.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import networkx as nx
import numpy as np

from repro.core.detector import CollisionDetector, SlotType
from repro.core.timing import TimingModel

__all__ = ["SensorField", "CoverageResult", "run_field_discovery"]


@dataclass(frozen=True)
class SensorField:
    """A deployed sensor field.

    Attributes
    ----------
    positions:
        (n, 2) array of coordinates in metres.
    radio_range:
        Communication radius (disk model).
    """

    positions: np.ndarray
    radio_range: float

    def __post_init__(self) -> None:
        if self.positions.ndim != 2 or self.positions.shape[1] != 2:
            raise ValueError("positions must be an (n, 2) array")
        if self.radio_range <= 0:
            raise ValueError("radio_range must be positive")

    @classmethod
    def random(
        cls,
        n: int,
        width: float,
        height: float,
        radio_range: float,
        rng: np.random.Generator,
    ) -> "SensorField":
        pos = np.column_stack(
            [rng.uniform(0, width, n), rng.uniform(0, height, n)]
        )
        return cls(pos, radio_range)

    @property
    def n(self) -> int:
        return int(self.positions.shape[0])

    def adjacency(self) -> np.ndarray:
        """Boolean adjacency under the disk model (no self-loops)."""
        diff = self.positions[:, None, :] - self.positions[None, :, :]
        dist = np.sqrt((diff**2).sum(axis=2))
        adj = dist <= self.radio_range
        np.fill_diagonal(adj, False)
        return adj

    def graph(self) -> nx.Graph:
        g = nx.Graph()
        g.add_nodes_from(range(self.n))
        adj = self.adjacency()
        g.add_edges_from(zip(*np.nonzero(np.triu(adj))))
        return g

    def is_connected(self) -> bool:
        return self.n <= 1 or nx.is_connected(self.graph())


@dataclass(frozen=True)
class CoverageResult:
    """Outcome of a field-wide discovery run."""

    field: SensorField
    slots: int
    discovered: np.ndarray  # directed: discovered[i, j] = i heard j
    listen_time: float
    garbage_receptions: int

    @property
    def true_edges(self) -> int:
        return int(self.field.adjacency().sum()) // 2

    @property
    def discovered_fraction(self) -> float:
        """Fraction of directed neighbor relations discovered."""
        total = int(self.field.adjacency().sum())
        if total == 0:
            return 1.0
        return float((self.discovered & self.field.adjacency()).sum()) / total

    @property
    def complete(self) -> bool:
        return self.discovered_fraction == 1.0

    def discovered_graph(self) -> nx.Graph:
        """Undirected graph of links confirmed in *both* directions."""
        mutual = self.discovered & self.discovered.T & self.field.adjacency()
        g = nx.Graph()
        g.add_nodes_from(range(self.field.n))
        g.add_edges_from(zip(*np.nonzero(np.triu(mutual))))
        return g

    def connectivity_verified(self) -> bool:
        """True iff the mutually-discovered graph is connected -- the
        operational question coverage verification answers."""
        return self.field.n <= 1 or nx.is_connected(self.discovered_graph())


def run_field_discovery(
    field: SensorField,
    detector: CollisionDetector,
    timing: TimingModel,
    rng: np.random.Generator,
    tx_prob: float | None = None,
    max_slots: int = 1_000_000,
    until: str = "complete",
) -> CoverageResult:
    """Run slotted local discovery over the whole field.

    ``tx_prob`` defaults to ``1 / (1 + mean degree)``, the local analogue
    of the clique's 1/n.  ``until`` is ``"complete"`` (every directed
    neighbor relation heard) or ``"connected"`` (stop as soon as the
    mutually-discovered graph is connected -- much earlier).
    """
    if until not in ("complete", "connected"):
        raise ValueError("until must be 'complete' or 'connected'")
    adj = field.adjacency()
    n = field.n
    if n < 2:
        raise ValueError("need at least 2 sensors")
    degrees = adj.sum(axis=1)
    if tx_prob is None:
        tx_prob = 1.0 / (1.0 + float(degrees.mean()))
    if not 0.0 < tx_prob < 1.0:
        raise ValueError("tx_prob must be in (0, 1)")
    dur = {
        kind: timing.slot_duration(detector, kind)
        for kind in (SlotType.IDLE, SlotType.SINGLE, SlotType.COLLIDED)
    }
    discovered = np.zeros((n, n), dtype=bool)
    target = int(adj.sum())
    found = 0
    listen_time = 0.0
    garbage = 0
    slot = 0
    check_connect = until == "connected"
    adj_int = adj.astype(np.int32)

    while slot < max_slots:
        if until == "complete" and found >= target:
            break
        tx = rng.random(n) < tx_prob
        counts = adj_int @ tx.astype(np.int32)
        listeners = ~tx
        idle_l = listeners & (counts == 0)
        single_l = listeners & (counts == 1)
        multi_l = listeners & (counts >= 2)
        listen_time += float(idle_l.sum()) * dur[SlotType.IDLE]
        listen_time += float(single_l.sum()) * dur[SlotType.SINGLE]
        if single_l.any():
            for j in np.nonzero(tx)[0]:
                hearers = single_l & adj[:, j]
                newly = hearers & ~discovered[:, j]
                if newly.any():
                    discovered[newly, j] = True
                    found += int(newly.sum())
        if multi_l.any():
            # Each listener independently classifies its local collision;
            # a miss means it demodulates garbage at single-slot cost.
            for i in np.nonzero(multi_l)[0]:
                if rng.random() < detector.miss_probability(int(counts[i])):
                    garbage += 1
                    listen_time += dur[SlotType.SINGLE] - dur[SlotType.COLLIDED]
            listen_time += float(multi_l.sum()) * dur[SlotType.COLLIDED]
        slot += 1
        if check_connect and slot % 16 == 0:
            partial = CoverageResult(field, slot, discovered, listen_time, garbage)
            if partial.connectivity_verified():
                break

    return CoverageResult(
        field=field,
        slots=slot,
        discovered=discovered,
        listen_time=listen_time,
        garbage_receptions=garbage,
    )
