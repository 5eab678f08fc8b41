"""CRC-CD -- the baseline collision-detection scheme (paper Figure 1).

Every tag answering a slot transmits ``id ⊕ crc(id)``
(EPC Gen2: a 64-bit ID plus a 32-bit CRC, 96 bits total).  The reader
recomputes the CRC over the received (possibly OR-overlapped) ID field and
compares it with the received CRC field:

* signals match  -> **single**, the ID field is the tag's ID;
* mismatch       -> **collided** (``crc(∨ id_i) != ∨ crc(id_i)`` with
  probability ``1 - 2^{-l_crc}`` per the paper's Section IV-A);
* no signal      -> **idle**.

Because the ID travels in the contention payload itself, CRC-CD needs no
second phase -- but every slot, including idle and collided ones, is charged
the full ``(l_id + l_crc)·τ`` airtime (Section V).
"""

from __future__ import annotations

import numpy as np

from repro.bits.bitvec import BitVector
from repro.bits.crc import CRC32_IEEE, CrcEngine, CrcSpec
from repro.bits.rng import RngStream
from repro.core.detector import CollisionDetector, SlotOutcome, SlotType

__all__ = ["CRCCDDetector"]


class CRCCDDetector(CollisionDetector):
    """CRC-based collision detection.

    Parameters
    ----------
    id_bits:
        Tag ID length l_id (paper: 64).
    crc_spec:
        CRC parameter set; defaults to CRC-32 (the paper's ``l_crc = 32``).
    method:
        CRC engine implementation, ``"bitwise"`` or ``"table"``.  The choice
        does not change results, only the cost profile (Table IV).
    """

    needs_id_phase = False

    def __init__(
        self,
        id_bits: int = 64,
        crc_spec: CrcSpec = CRC32_IEEE,
        method: str = "bitwise",
    ) -> None:
        if id_bits < 1:
            raise ValueError("id_bits must be >= 1")
        self.id_bits = id_bits
        self.engine = CrcEngine(crc_spec, method=method)
        self.name = f"CRC-CD/{crc_spec.name}"
        # A tag's payload is a pure function of its ID, so both payload
        # paths memoize (value, crc_op_count) per ID and replay the op
        # count into the counters on every transmission -- identical
        # Table IV accounting without recomputing the CRC each slot.  The
        # packed classifier reads the same memo for a slot's ID field.
        self._payload_memo: dict[int, tuple[int, int]] = {}
        #: Instrumentation for the Table IV comparison.
        self.classify_calls = 0
        self.crc_computations = 0
        self.crc_ops_total = 0

    @property
    def crc_bits(self) -> int:
        return self.engine.spec.width

    @property
    def contention_bits(self) -> int:
        """l_id + l_crc bits on the air per responding tag."""
        return self.id_bits + self.crc_bits

    def contention_payload(self, tag_id: int, rng: RngStream) -> BitVector:
        """``id ⊕ crc(id)``.  The tag-side CRC computation is also counted
        (the paper's point is precisely that *tags* must run CRC)."""
        return BitVector(self._payload(tag_id), self.contention_bits)

    def classify(self, signal: BitVector | None) -> SlotOutcome:
        self.classify_calls += 1
        if signal is None:
            return SlotOutcome(SlotType.IDLE)
        if signal.length != self.contention_bits:
            raise ValueError(
                f"signal has {signal.length} bits, expected {self.contention_bits}"
            )
        id_field = signal[: self.id_bits]
        crc_field = signal[self.id_bits :]
        recomputed = self.engine.compute_bits(id_field)
        self.crc_computations += 1
        self.crc_ops_total += self.engine.last_op_count
        if recomputed == crc_field:
            return SlotOutcome(SlotType.SINGLE, decoded_id=id_field.to_int())
        return SlotOutcome(SlotType.COLLIDED)

    def contention_payload_packed(self, tag_id: int, rng: RngStream) -> int:
        """``id ⊕ crc(id)`` as a ``packed_bits``-wide integer.

        Bit layout matches :meth:`contention_payload`'s concatenation --
        ID in the high bits, CRC in the low bits -- so packed ORs overlap
        exactly the bits the object channel ORs.  CRC-CD draws nothing
        from ``rng`` on either path.  The tag-side CRC is still *charged*
        every transmission (the paper's point is that tags must run CRC);
        only the recomputation is memoized.
        """
        del rng
        return self._payload(tag_id)

    def _payload(self, tag_id: int) -> int:
        """The packed payload from the per-ID memo, charging the tag-side
        CRC's op count on every call."""
        memo = self._payload_memo.get(tag_id)
        if memo is None:
            crc = self.engine.compute_bits(BitVector(tag_id, self.id_bits))
            memo = (
                (tag_id << self.crc_bits) | crc.to_int(),
                self.engine.last_op_count,
            )
            self._payload_memo[tag_id] = memo
        self.crc_computations += 1
        self.crc_ops_total += memo[1]
        return memo[0]

    def classify_packed(self, value: int | None, count: int) -> SlotOutcome:
        """CRC check over a packed superposition (same counters).

        Unlike QCD, an all-zero payload is possible (an ID whose CRC is
        zero), so idle is signalled by ``None`` -- mirroring the object
        channel's no-signal convention -- never inferred from the value.
        """
        del count
        self.classify_calls += 1
        if value is None:
            return SlotOutcome(SlotType.IDLE)
        crc_bits = self.crc_bits
        id_field = value >> crc_bits
        crc_mask = (1 << crc_bits) - 1
        # The CRC and its data-dependent op count are pure functions of
        # the ID field, so a field that equals a known tag ID (every true
        # single) replays the memo exactly.  OR-ed collision fields are
        # computed but not stored, keeping the memo bounded by the
        # population.
        memo = self._payload_memo.get(id_field)
        if memo is None:
            recomputed = self.engine.compute_bits(
                BitVector(id_field, self.id_bits)
            ).to_int()
            ops = self.engine.last_op_count
        else:
            recomputed = memo[0] & crc_mask
            ops = memo[1]
        self.crc_computations += 1
        self.crc_ops_total += ops
        if recomputed == value & crc_mask:
            return SlotOutcome(SlotType.SINGLE, decoded_id=id_field)
        return SlotOutcome(SlotType.COLLIDED)

    def classify_packed_many(
        self, values: "np.ndarray", counts: "np.ndarray"
    ) -> "np.ndarray":
        """Frame classification: vectorized idle handling, scalar CRCs.

        Each occupied slot's (possibly OR-overlapped) ID field gets its
        own CRC check through :meth:`classify_packed`, which charges the
        shift register's exact, data-dependent op count (replayed from
        the per-ID memo for a known ID, a few byte-table lookups per
        byte otherwise).  The win here is skipping the idle majority of
        late frames.
        """
        n_slots = len(counts)
        out = np.full(n_slots, int(SlotType.IDLE), dtype=np.int64)
        occupied = np.flatnonzero(counts)
        self.classify_calls += n_slots - len(occupied)
        slot_values = values.tolist()
        slot_counts = counts.tolist()
        for slot in occupied.tolist():
            verdict = self.classify_packed(slot_values[slot], slot_counts[slot])
            out[slot] = int(verdict.slot_type)
        return out

    def miss_probability(self, m: int) -> float:
        """Approximate probability an m-tag collision is misread as single:
        the overlapped CRC field coincides with the CRC of the overlapped ID
        field by chance, ~``2^{-l_crc}`` (paper Section IV-A)."""
        if m < 2:
            return 0.0
        return 2.0 ** (-self.crc_bits)

    def reset_instrumentation(self) -> None:
        self.classify_calls = 0
        self.crc_computations = 0
        self.crc_ops_total = 0
