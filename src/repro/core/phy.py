"""PHY-level collision detection via FM0 line-code violations.

The paper's Section I mentions, and dismisses as costly, the alternative
of "special hardware for sensing collisions in wireless channels".  This
module makes that alternative concrete so it can be compared honestly:
tags transmit their ID *FM0-encoded*; under OOK backscatter the channel
ORs the half-symbol envelopes; the reader's demodulator checks the FM0
inversion rules:

* a clean single decodes (the rules hold);
* overlapped distinct transmissions *usually* break a boundary or
  mid-symbol rule -- the classic Manchester/FM0 collision sensing of the
  ISO 18000-6B lineage.

Properties relative to QCD:

* **one-phase** and **preamble-free**: a slot costs exactly ``l_id`` bit
  times (half the CRC-CD slot, no 2l preamble) -- but idle/collided slots
  cost the full ID window, which QCD's variable-length slots undercut 4x;
* **not exact**: the OR of valid FM0 waveforms can itself be valid
  (e.g. FM0(1) ∨ FM0(0) = FM0(0) at matching levels), so collisions of
  tags whose waveforms nest do slip through.  There is no closed form
  for the miss rate; :meth:`FM0ViolationDetector.miss_probability` is a
  cached Monte-Carlo estimate over random ID pairs/groups;
* **decoder hardware**: the rule check runs per half-symbol in the
  reader -- "special hardware" indeed, though trivial; the *tag* needs
  nothing beyond its normal FM0 encoder, which is the interesting part
  the paper's dismissal glosses over.
"""

from __future__ import annotations

from repro.bits.bitvec import BitVector
from repro.bits.linecode import FM0Codec, LineCodeError
from repro.bits.rng import RngStream, make_rng
from repro.core.detector import CollisionDetector, SlotOutcome, SlotType

__all__ = ["FM0ViolationDetector"]


class FM0ViolationDetector(CollisionDetector):
    """Collision detection by FM0 rule checking.

    Parameters
    ----------
    id_bits:
        Tag ID length; the on-air slot cost (``contention_bits``) equals
        it -- the waveform carries two half-symbols per bit but occupies
        one bit time each pair.
    """

    needs_id_phase = False

    def __init__(self, id_bits: int = 64) -> None:
        if id_bits < 1:
            raise ValueError("id_bits must be >= 1")
        self.id_bits = id_bits
        self.codec = FM0Codec(initial_level=1)
        self.name = "FM0-violation"
        self._miss_cache: dict[int, float] = {}

    @property
    def contention_bits(self) -> int:
        """Airtime in bit times: FM0 is rate-1 (two halves per bit time)."""
        return self.id_bits

    @property
    def packed_bits(self) -> int:
        """The payload is the waveform: two half-symbols per ID bit."""
        return 2 * self.id_bits

    def contention_payload(self, tag_id: int, rng: RngStream) -> BitVector:
        """The FM0 waveform of the ID (length ``2·id_bits`` half-symbols)."""
        return self.codec.encode(BitVector(tag_id, self.id_bits))

    def classify(self, signal: BitVector | None) -> SlotOutcome:
        if signal is None:
            return SlotOutcome(SlotType.IDLE)
        try:
            decoded = self.codec.decode(signal)
        except LineCodeError:
            return SlotOutcome(SlotType.COLLIDED)
        return SlotOutcome(SlotType.SINGLE, decoded_id=decoded.to_int())

    # ------------------------------------------------------------------

    def miss_probability(self, m: int, trials: int = 4000) -> float:
        """Monte-Carlo estimate of P(m overlapped random IDs decode as a
        valid single).  Cached per m; used by the vectorized kernels'
        generic fallback."""
        if m < 2:
            return 0.0
        if m not in self._miss_cache:
            rng = make_rng(0xF30 + m)
            misses = 0
            for _ in range(trials):
                waveforms = [
                    self.codec.encode(
                        BitVector.random(self.id_bits, rng.generator)
                    )
                    for _ in range(m)
                ]
                combined = BitVector.superpose(waveforms)
                if self.codec.is_valid(combined):
                    misses += 1
            self._miss_cache[m] = misses / trials
        return self._miss_cache[m]
