"""The collision-detector protocol shared by all schemes.

A slotted anti-collision protocol needs, in every slot, a classification of
the received signal into one of three types (paper Section I):

* **idle** -- no tag responded;
* **single** -- exactly one tag responded, and its payload is recoverable;
* **collided** -- two or more tags responded; their signals OR together.

A :class:`CollisionDetector` encapsulates *how* that classification is made
and what the tags must transmit to enable it.  The simulator composes a
detector with any anti-collision protocol (FSA family or tree family): the
protocol decides *who* talks in each slot, the detector decides *what* they
say and how the reader interprets the superposition.

Two-phase schemes (QCD) first transmit a short contention payload and only
transfer the full ID after the reader acknowledges a single slot; one-phase
schemes (CRC-CD) put the ID in the contention payload itself.  The
``needs_id_phase`` flag distinguishes them, and the timing model charges
slots accordingly.
"""

from __future__ import annotations

import enum
from abc import ABC, abstractmethod
from dataclasses import dataclass

import numpy as np

from repro.bits.bitvec import BitVector
from repro.bits.rng import RngStream

__all__ = ["SlotType", "SlotOutcome", "CollisionDetector"]


class SlotType(enum.IntEnum):
    """Classification of a slot (values match the paper's Algorithm 1)."""

    IDLE = 0
    SINGLE = 1
    COLLIDED = 2


@dataclass(frozen=True)
class SlotOutcome:
    """A detector's verdict for one slot.

    Attributes
    ----------
    slot_type:
        The detector's classification.
    decoded_id:
        For one-phase detectors, the ID recovered from a single slot
        (``None`` otherwise or when the slot is not single).
    """

    slot_type: SlotType
    decoded_id: int | None = None


class CollisionDetector(ABC):
    """Abstract base class for collision-detection schemes.

    Subclasses must be stateless across slots except for instrumentation
    counters; the same instance is reused for every slot of an inventory.
    """

    #: Human-readable scheme name (used in reports).
    name: str = "abstract"

    #: True if a single slot triggers a second phase in which the tag
    #: transmits its ID (QCD); False if the ID is already in the contention
    #: payload (CRC-CD).
    needs_id_phase: bool = False

    @property
    @abstractmethod
    def contention_bits(self) -> int:
        """Length in bits of the payload each tag sends in the contention
        phase of a slot."""

    @property
    def packed_bits(self) -> int:
        """Width in bits of the packed contention payload (any width).

        Defaults to :attr:`contention_bits`; a payload that is not its
        airtime in bits (FM0's half-symbols) overrides it.  The packed
        methods below must draw from tag RNG streams and return verdicts
        exactly like their object counterparts -- the Reader runs on them.
        """
        return self.contention_bits

    @abstractmethod
    def contention_payload(self, tag_id: int, rng: RngStream) -> BitVector:
        """The bit string a tag transmits when it answers a slot.

        Parameters
        ----------
        tag_id:
            The tag's ID as an integer (``l_id`` bits).
        rng:
            The tag's private random stream (QCD draws its random integer
            from it; CRC-CD ignores it).
        """

    @abstractmethod
    def classify(self, signal: BitVector | None) -> SlotOutcome:
        """Classify the superposed signal of one slot.

        ``signal`` is ``None`` for an idle slot (no transmission).  The
        Boolean-sum channel additionally lets QCD treat an all-zero signal
        as idle, since its preamble integers are strictly positive.
        """

    def contention_payload_packed(self, tag_id: int, rng: RngStream) -> int:
        """:meth:`contention_payload` as a ``packed_bits``-wide integer.

        Must draw from ``rng`` exactly like the object version (same calls,
        same order).  This default packs the object payload; schemes on
        the Reader's hot path override it with plain int arithmetic.
        """
        return self.contention_payload(tag_id, rng).to_int()

    def classify_packed(self, value: int | None, count: int) -> SlotOutcome:
        """:meth:`classify` over a packed superposed value.

        ``value`` is ``None`` for an idle slot, otherwise the slot's
        received ``packed_bits``-wide value; ``count`` is its ground-truth
        transmitter count (only a genie detector may read it).  Must
        return the same verdict (and update the same instrumentation) as
        :meth:`classify` would for the equivalent :class:`BitVector`
        signal.  This default rebuilds that signal and classifies it.
        """
        del count
        signal = None if value is None else BitVector(value, self.packed_bits)
        return self.classify(signal)

    def classify_packed_many(
        self, values: "np.ndarray", counts: "np.ndarray"
    ) -> "np.ndarray":
        """Classify a whole frame of packed superpositions at once.

        ``values[s]`` is slot ``s``'s superposed value (0 when idle; a
        uint64, or a Python int when ``packed_bits > 64``) and
        ``counts[s]`` its ground-truth transmitter count -- needed to
        distinguish an idle slot from an all-zero payload, since the
        object channel reports idle as the *absence* of a signal.
        Returns one ``SlotType`` value (as an int) per slot.

        Verdicts and instrumentation counters must match ``len(counts)``
        calls to :meth:`classify_packed`; this default delegates to it
        slot by slot, so every detector gets the frame-batched reader for
        free and overrides it only for vectorized speed.
        """
        out = np.empty(len(counts), dtype=np.int64)
        for i, (value, count) in enumerate(
            zip(values.tolist(), counts.tolist())
        ):
            out[i] = int(
                self.classify_packed(value if count else None, count).slot_type
            )
        return out

    def reset_instrumentation(self) -> None:
        """Clear any per-run counters.  Default: nothing to clear."""

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"{type(self).__name__}(name={self.name!r})"
