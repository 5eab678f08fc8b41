"""Energy accounting for inventories.

Table IV argues QCD's value partly in *computation* (1 instruction vs
>100) and *transmission* (16 bits vs 96).  This module turns both into
joules so the trade-off can be reported in one number per scheme:

* each responding tag pays ``bits · τ · P_tag_tx`` for its transmission
  plus ``instructions · E_instr`` for the check-code computation
  (CRC-CD computes a CRC per response; QCD complements one register);
* a tag identified in a two-phase single slot additionally transmits its
  ID (plus CRC under the guard policy);
* the reader listens for the whole inventory: ``total_time · P_reader_rx``.

Default constants are representative of semi-passive tag front ends and
µW-class tag logic; they are parameters, not claims -- the *ratios*
between schemes are the reproducible output.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

from repro.core.crc_cd import CRCCDDetector
from repro.core.detector import CollisionDetector, SlotType
from repro.core.timing import TimingModel
from repro.sim.trace import SlotRecord, SlotTrace

__all__ = ["EnergyModel", "EnergyBreakdown", "inventory_energy"]


@dataclass(frozen=True)
class EnergyModel:
    """Power/energy constants (µW and µJ; times are µs).

    Attributes
    ----------
    tag_tx_uw:
        Tag backscatter/transmit power draw.
    tag_idle_uw:
        Tag logic draw while waiting in a slot it does not transmit in.
    reader_rx_uw:
        Reader receive-chain draw (on for the whole inventory).
    instr_nj:
        Energy per tag CPU instruction, in nanojoules.
    """

    tag_tx_uw: float = 20.0
    tag_idle_uw: float = 1.0
    reader_rx_uw: float = 100_000.0
    instr_nj: float = 0.5

    def __post_init__(self) -> None:
        if min(self.tag_tx_uw, self.tag_idle_uw, self.reader_rx_uw) < 0:
            raise ValueError("power draws must be non-negative")
        if self.instr_nj < 0:
            raise ValueError("instr_nj must be non-negative")


@dataclass(frozen=True)
class EnergyBreakdown:
    """Energy totals for one inventory, in µJ."""

    tag_transmit: float
    tag_compute: float
    reader_receive: float

    @property
    def tag_total(self) -> float:
        return self.tag_transmit + self.tag_compute

    @property
    def total(self) -> float:
        return self.tag_total + self.reader_receive


def _instructions_per_response(detector: CollisionDetector) -> float:
    """Tag-side check-code computation cost per response."""
    if isinstance(detector, CRCCDDetector):
        # ~2.5 ops per message bit for the shift register (measured by
        # repro.core.cost); use the detector's own average when it has
        # counted ops, else the model (a table engine counts none).
        if detector.crc_ops_total:
            return detector.crc_ops_total / detector.crc_computations
        return 2.5 * detector.id_bits
    if detector.needs_id_phase:
        return 1.0  # one complement
    return 0.0  # the genie transmits a bare ID


def inventory_energy(
    trace: Sequence[SlotRecord],
    detector: CollisionDetector,
    timing: TimingModel,
    model: EnergyModel | None = None,
) -> EnergyBreakdown:
    """Compute the energy breakdown of a completed inventory trace."""
    model = model if model is not None else EnergyModel()
    trace = SlotTrace.from_records(trace)
    instr = _instructions_per_response(detector)
    tx_time = 0.0
    responses = 0
    for n_responders, detected in zip(
        trace.n_responders, trace.detected_type
    ):
        if n_responders == 0:
            continue
        responses += n_responders
        tx_time += n_responders * detector.contention_bits * timing.tau
        if detector.needs_id_phase and detected == SlotType.SINGLE:
            id_bits = timing.id_bits + (
                timing.crc_bits if timing.guard_id_phase else 0
            )
            tx_time += id_bits * timing.tau
    total_time = sum(trace.duration)
    return EnergyBreakdown(
        tag_transmit=tx_time * model.tag_tx_uw * 1e-6,
        tag_compute=responses * instr * model.instr_nj * 1e-3,
        reader_receive=total_time * model.reader_rx_uw * 1e-6,
    )
