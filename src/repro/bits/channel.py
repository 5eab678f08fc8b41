"""The shared backscatter channel.

The paper abstracts the physical layer as follows (Section IV-A): when
``m`` tags transmit in the same slot, the reader receives the bitwise
Boolean sum of their signals::

    s = s_1 ∨ s_2 ∨ ... ∨ s_m,   |s| = |s_1| = ... = |s_m|

:class:`Channel` implements exactly this model, distinguishing the *absence*
of a transmission (idle slot -- the reader receives nothing) from an
all-zero signal.  It also accounts for the airtime consumed, which is what
the paper's timing model charges (``τ`` per bit).  A signal is a packed
int of a given bit width whose most significant bit goes on the air
first, the layout of :class:`~repro.bits.bitvec.BitVector`.

Two physical effects beyond the paper's noise-free, capture-free setting
are available for robustness studies (both off by default):

* **bit errors** -- each received bit flips independently with
  ``bit_error_rate``;
* **capture effect** -- in a collided slot, one tag may be so much
  stronger than the rest that the reader decodes *its* signal cleanly
  instead of the superposition.  ``P(capture | m transmitters) =
  capture_probability · capture_falloff^(m−2)``: likeliest for pair
  collisions, decaying as more interferers pile in (the standard
  power-ratio intuition).  After a capture, :attr:`last_capture_index`
  holds the index of the surviving transmitter so the reader can credit
  the right tag.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Sequence

import numpy as np

from repro.bits.rng import RngStream

__all__ = ["Channel", "ChannelStats"]


@dataclass
class ChannelStats:
    """Running totals of channel activity."""

    slots: int = 0
    transmissions: int = 0
    bits_on_air: int = 0
    flipped_bits: int = 0
    captures: int = 0

    def reset(self) -> None:
        self.slots = 0
        self.transmissions = 0
        self.bits_on_air = 0
        self.flipped_bits = 0
        self.captures = 0


@dataclass
class Channel:
    """A Boolean-sum backscatter channel.

    Parameters
    ----------
    bit_error_rate:
        Probability that each received bit is flipped independently
        (0.0 = the paper's noiseless channel).
    capture_probability:
        Probability that a *pair* collision resolves to the stronger tag's
        clean signal (0.0 = the paper's capture-free model).
    capture_falloff:
        Multiplicative decay of the capture probability per additional
        interferer beyond two.
    rng:
        Random stream for bit flips / capture draws; required iff either
        effect is enabled.
    """

    bit_error_rate: float = 0.0
    capture_probability: float = 0.0
    capture_falloff: float = 0.5
    rng: RngStream | None = None
    stats: ChannelStats = field(default_factory=ChannelStats)
    #: Index (into the transmitted signal list) of the tag whose signal
    #: survived a capture in the most recent slot, or ``None``.
    last_capture_index: int | None = field(default=None, init=False)

    def __post_init__(self) -> None:
        if not 0.0 <= self.bit_error_rate < 1.0:
            raise ValueError("bit_error_rate must be in [0, 1)")
        if not 0.0 <= self.capture_probability <= 1.0:
            raise ValueError("capture_probability must be in [0, 1]")
        if not 0.0 < self.capture_falloff <= 1.0:
            raise ValueError("capture_falloff must be in (0, 1]")
        needs_rng = self.bit_error_rate > 0.0 or self.capture_probability > 0.0
        if needs_rng and self.rng is None:
            raise ValueError(
                "a rng is required when bit_error_rate or "
                "capture_probability is > 0"
            )

    def transmit_packed(self, values: Sequence[int], bits: int) -> int | None:
        """Superpose the ``bits``-wide packed payloads of one slot.

        Returns ``None`` for an idle slot (no transmitters), otherwise the
        bitwise OR of ``values`` (plain ints, any width) after capture and
        bit errors.  Check :attr:`last_capture_index` after the call to
        learn whether (and whose) capture occurred.

        Per occupied slot the channel RNG draws, in this order: the
        capture test's ``random()`` (collided slots, capture enabled),
        ``integers(0, n)`` when the slot is captured, then ``random(bits)``
        for the bit errors, whose draw ``i`` flips bit ``bits - 1 - i``
        (MSB first).
        """
        self.stats.slots += 1
        self.last_capture_index = None
        if not values:
            return None
        n = len(values)
        self.stats.transmissions += n
        self.stats.bits_on_air += bits * n
        if n == 1:
            received = values[0]
        elif self.capture_probability and self._captures(n):
            received = values[self.last_capture_index]
        elif n <= 32 or bits > 64:
            # Typical collided slots hold a handful of tags; a plain int
            # OR loop beats the array round-trip at these sizes, and it
            # is the only option for payloads wider than a uint64.
            received = 0
            for v in values:
                received |= v
        else:
            received = int(
                np.bitwise_or.reduce(np.fromiter(values, np.uint64, count=n))
            )
        if self.bit_error_rate:
            received ^= self._flip_masks(1, bits)[0]
        return received

    def _captures(self, n: int) -> bool:
        """The capture draws for an ``n``-transmitter slot (``n >= 2``)."""
        p = self.capture_probability * self.capture_falloff ** (n - 2)
        assert self.rng is not None
        if float(self.rng.random()) >= p:
            return False
        self.last_capture_index = int(self.rng.integers(0, n))
        self.stats.captures += 1
        return True

    def _flip_masks(self, n: int, bits: int) -> list[int]:
        """Bit-error masks of ``n`` occupied slots from one draw: draw
        ``k * bits + i`` flips bit ``bits - 1 - i`` of slot ``k``."""
        assert self.rng is not None
        hits = np.flatnonzero(self.rng.random(bits * n) < self.bit_error_rate)
        self.stats.flipped_bits += len(hits)
        masks = [0] * n
        for k, i in zip(*(a.tolist() for a in np.divmod(hits, bits))):
            masks[k] |= 1 << (bits - 1 - i)
        return masks

    def transmit_packed_many(
        self, values: np.ndarray, counts: np.ndarray, bits: int
    ) -> np.ndarray:
        """Superpose every slot of a frame in one call.

        ``values`` holds all of the frame's packed payloads slot-major
        (slot 0's transmitters first): a uint64 array, or an object array
        of ints for payloads wider than 64 bits.  ``counts[s]`` is slot
        ``s``'s transmitter count.  Returns one value per slot, with the
        dtype of ``values`` -- the segmented OR-reduction of that slot's
        payloads, 0 for idle slots (QCD payloads are strictly positive,
        so 0 is unambiguous there; callers that need idle-vs-zero must
        consult ``counts``).

        Statistics and bit errors are exactly those of ``len(counts)``
        calls to :meth:`transmit_packed`: the whole frame's flips come
        from one ``random(bits * occupied)`` draw, which yields the same
        values as one ``random(bits)`` per occupied slot in slot order.
        A capturing channel interleaves a second kind of draw per slot,
        so it must run its slots through :meth:`transmit_packed`.
        """
        n_slots = len(counts)
        total = len(values)
        self.stats.slots += n_slots
        self.stats.transmissions += total
        self.stats.bits_on_air += bits * total
        self.last_capture_index = None
        superposed = np.zeros(n_slots, dtype=values.dtype)
        if total:
            occupied = counts > 0
            # Exclusive prefix sum = each slot's segment start; keeping
            # only occupied slots' starts makes the index list strictly
            # increasing, which is what reduceat's segment semantics
            # need (an empty segment would alias its neighbor).
            starts = np.zeros(n_slots, dtype=np.intp)
            np.cumsum(counts[:-1], out=starts[1:])
            superposed[occupied] = np.bitwise_or.reduceat(
                values, starts[occupied]
            )
            if self.bit_error_rate:
                slots = np.flatnonzero(occupied).tolist()
                for slot, mask in zip(
                    slots, self._flip_masks(len(slots), bits)
                ):
                    if mask:
                        superposed[slot] = int(superposed[slot]) ^ mask
        return superposed
