"""Quick Collision Detection (QCD) -- Algorithm 1 of the paper.

The tag side: when answering a slot, a tag transmits only its collision
preamble ``r ⊕ r̄`` (``2l`` bits).  The reader side (Algorithm 1):

1. receive the superposed signal ``s``;
2. if ``s = 0`` (or nothing was received): **idle**;
3. otherwise split ``s`` into ``r`` and ``c``;
4. if ``c = f(r)``: **single** -- the reader then ACKs and the tag
   transmits its ID in a second phase;
5. else: **collided**.

The scheme is exact whenever at least two colliding tags drew different
random integers (Theorem 1); the residual miss probability for an m-tag
collision is ``2^{-l(m-1)}`` (all m draws equal).  The detector counts the
checks it performs so Table IV's "1 instruction per check" claim can be
reported from measurement.
"""

from __future__ import annotations

from functools import partial

import numpy as np

from repro.bits.bitvec import BitVector
from repro.bits.rng import RngStream
from repro.core.collision_function import BitwiseComplement, CollisionFunction
from repro.core.detector import CollisionDetector, SlotOutcome, SlotType
from repro.core.preamble import PreambleCodec

__all__ = ["QCDDetector"]

_PACKED_METHODS = (
    "contention_payload_packed", "classify_packed", "classify_packed_many"
)


class QCDDetector(CollisionDetector):
    """Quick Collision Detection with configurable strength.

    Parameters
    ----------
    strength:
        l, the bit length of the random preamble integer (paper recommends
        8; evaluation sweeps 4/8/16).
    function:
        Collision function; defaults to bitwise complement.  Supplying a
        non-collision function (e.g. the identity) degrades detection and
        is supported only for ablation experiments.
    """

    needs_id_phase = True

    def __init__(
        self, strength: int = 8, function: CollisionFunction | None = None
    ) -> None:
        self.codec = PreambleCodec(strength, function)
        self.name = f"QCD-{strength}"
        if not isinstance(self.codec.function, BitwiseComplement):
            # The packed forms below apply the paper's complement to plain
            # ints.  An ablation function runs the base class's
            # BitVector-backed defaults instead, bound here once so the
            # complement's slots test nothing.  (partial, unlike a bound
            # method, pickles and deep-copies back to the same function.)
            for name in _PACKED_METHODS:
                setattr(
                    self, name, partial(getattr(CollisionDetector, name), self)
                )
        #: Instrumentation: number of classify() calls and of collision-
        #: function evaluations (one complement per non-idle slot).
        self.classify_calls = 0
        self.function_evaluations = 0

    @property
    def strength(self) -> int:
        return self.codec.strength

    @property
    def contention_bits(self) -> int:
        """l_prm = 2l bits on the air per responding tag."""
        return self.codec.preamble_bits

    def contention_payload(self, tag_id: int, rng: RngStream) -> BitVector:
        """Tags transmit only the preamble -- the ID waits for the ACK."""
        return self.codec.draw(rng).to_signal()

    def classify(self, signal: BitVector | None) -> SlotOutcome:
        """Algorithm 1.  ``decoded_id`` is always None: the ID arrives in
        the second phase of a single slot, outside the detector."""
        self.classify_calls += 1
        if signal is None or signal.is_zero():
            return SlotOutcome(SlotType.IDLE)
        preamble = self.codec.decode(signal)
        self.function_evaluations += 1
        if self.codec.is_consistent(preamble):
            return SlotOutcome(SlotType.SINGLE)
        return SlotOutcome(SlotType.COLLIDED)

    def contention_payload_packed(self, tag_id: int, rng: RngStream) -> int:
        """Packed ``r ⊕ r̄``: the same single draw as :meth:`codec.draw`.

        Bit layout matches :meth:`CollisionPreamble.to_signal` -- ``r`` in
        the high l bits, the complement in the low l bits -- so a packed
        superposition ORs exactly the bits the object channel ORs.
        """
        l = self.codec.strength
        r = int(rng.integers(1, 1 << l))
        return (r << l) | (r ^ ((1 << l) - 1))

    def classify_packed(self, value: int | None, count: int) -> SlotOutcome:
        """Algorithm 1 over a packed superposition (same counters)."""
        self.classify_calls += 1
        if not value:
            return SlotOutcome(SlotType.IDLE)
        l = self.codec.strength
        mask = (1 << l) - 1
        self.function_evaluations += 1
        if value & mask == (value >> l) ^ mask:
            return SlotOutcome(SlotType.SINGLE)
        return SlotOutcome(SlotType.COLLIDED)

    def classify_packed_many(
        self, values: np.ndarray, counts: np.ndarray
    ) -> np.ndarray:
        """Vectorized Algorithm 1 over one frame of superpositions.

        The preamble integers are strictly positive, so a zero value *is*
        an idle slot and ``counts`` is not consulted.  Counters advance
        exactly as per-slot :meth:`classify_packed` calls would: one
        classify per slot, one complement evaluation per non-idle slot.
        """
        n_slots = len(values)
        self.classify_calls += n_slots
        # Python-int operands keep a uint64 arena uint64 and work
        # elementwise on an object arena (preambles wider than 64 bits).
        l = self.codec.strength
        mask = (1 << l) - 1
        idle = values == 0
        single = (values & mask) == ((values >> l) ^ mask)
        self.function_evaluations += n_slots - int(idle.sum())
        out = np.full(n_slots, int(SlotType.COLLIDED), dtype=np.int64)
        out[single] = int(SlotType.SINGLE)
        out[idle] = int(SlotType.IDLE)
        return out

    def miss_probability(self, m: int) -> float:
        """Probability an m-tag collision goes undetected.

        All m tags must draw the same value from {1, ..., 2^l - 1}; the
        draws are independent and uniform, so
        ``P(miss) = (2^l - 1)^{-(m-1)}`` (the paper approximates this as
        ``2^{-l(m-1)}``).
        """
        if m < 2:
            return 0.0
        return float((1 << self.strength) - 1) ** (-(m - 1))

    def reset_instrumentation(self) -> None:
        self.classify_calls = 0
        self.function_evaluations = 0
