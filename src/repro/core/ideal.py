"""A genie collision detector -- experimental control.

The ideal detector classifies every slot correctly with zero check overhead:
tags transmit bare IDs and the simulator tells the detector the true number
of transmitters.  It bounds what any detection scheme could achieve and is
used in ablation benchmarks to separate protocol inefficiency (idle and
collided slots are inherent to FSA/BT) from detection inefficiency (the
airtime a scheme spends classifying them).
"""

from __future__ import annotations

from repro.bits.bitvec import BitVector
from repro.bits.rng import RngStream
from repro.core.detector import CollisionDetector, SlotOutcome, SlotType

__all__ = ["IdealDetector"]


class IdealDetector(CollisionDetector):
    """Perfect, oracle-assisted slot classification.

    Unlike the physical schemes, this detector cannot work from the
    superposed signal alone: :meth:`classify_packed` reads the slot's
    ground-truth transmitter count, and the object-level :meth:`classify`
    needs :meth:`observe_transmitters` first.  This is exactly the
    "special hardware for sensing collisions" alternative the paper
    mentions (and dismisses as unaffordable) in Section I.
    """

    needs_id_phase = False

    def __init__(self, id_bits: int = 64) -> None:
        self.id_bits = id_bits
        self.name = "ideal"
        self._pending_count: int | None = None
        self._pending_id: int | None = None

    @property
    def contention_bits(self) -> int:
        """Tags transmit the bare ID -- no checking overhead at all."""
        return self.id_bits

    def contention_payload(self, tag_id: int, rng: RngStream) -> BitVector:
        return BitVector(tag_id, self.id_bits)

    def observe_transmitters(self, count: int, sole_id: int | None = None) -> None:
        """Genie side-channel: the true transmitter count for the next slot
        (and the transmitting tag's ID when the count is one)."""
        if count < 0:
            raise ValueError("count must be >= 0")
        self._pending_count = count
        self._pending_id = sole_id

    def classify(self, signal: BitVector | None) -> SlotOutcome:
        if self._pending_count is None:
            raise RuntimeError(
                "IdealDetector.classify() requires observe_transmitters() first"
            )
        count, sole_id = self._pending_count, self._pending_id
        self._pending_count = None
        self._pending_id = None
        if count == 0:
            return SlotOutcome(SlotType.IDLE)
        if count == 1:
            decoded = sole_id
            if decoded is None and signal is not None:
                decoded = signal.to_int()
            return SlotOutcome(SlotType.SINGLE, decoded_id=decoded)
        return SlotOutcome(SlotType.COLLIDED)

    def classify_packed(self, value: int | None, count: int) -> SlotOutcome:
        """The genie's verdict from the true transmitter ``count``; its
        ``decoded_id`` is the received ``value``, which bit errors can
        corrupt (:meth:`classify` reports the observed true ID)."""
        if count == 0:
            return SlotOutcome(SlotType.IDLE)
        if count == 1:
            return SlotOutcome(SlotType.SINGLE, decoded_id=value)
        return SlotOutcome(SlotType.COLLIDED)

    def miss_probability(self, m: int) -> float:
        """The genie never errs."""
        return 0.0
