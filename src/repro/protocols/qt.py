"""The Query Tree protocol (Law, Lee & Siu; paper Section II).

The reader keeps a queue of bit-string prefixes, initially the empty
prefix.  Each slot it broadcasts the front prefix; tags whose ID starts
with it respond.  On a collision the prefix is extended with 0 and with 1
and both are enqueued, deterministically splitting the responders by their
next ID bit.  The walk ends when the queue drains, so every tag is
eventually identified -- QT is *memoryless* on the tag side and immune to
the starvation problem of randomized protocols.

The flip side (paper Section II): a *malicious* tag that answers every
prefix drives the reader down an exponential walk of the full ID tree --
see :mod:`repro.security.blocker` for that attack and the selective
"blocker tag" privacy construction built on it.

The queue is bounded in our implementation (``max_slots``) so adversarial
populations terminate the simulation cleanly instead of hanging.

Each probe is answered by
:meth:`~repro.protocols.base.AntiCollisionProtocol.prefix_responders`,
which bisects the sorted tag IDs instead of asking every tag, so a slot
costs two bisections plus its k responders rather than a pass over all n
tags.  Populations holding tags that override ``responds_to_prefix`` (the
jammers) are still asked tag by tag, so the attack runs unchanged.

The queued prefixes are disjoint, so they split the active tags between
them and the queue runs as one frame on the reader's frame-batched path
(:meth:`~repro.protocols.base.AntiCollisionProtocol.prefix_frame`):
``feedback_frame`` pops the probed prefixes and enqueues their children
in slot order, exactly as slot-by-slot feedback would.  With a
``max_slots`` bound, or with jammers present, the walk runs slot by slot.
"""

from __future__ import annotations

from collections import deque
from typing import Sequence

from repro.bits.bitvec import BitVector
from repro.core.detector import SlotType
from repro.protocols.base import AntiCollisionProtocol
from repro.tags.tag import Tag

__all__ = ["QueryTree"]

_ZERO = BitVector(0, 1)
_ONE = BitVector(1, 1)


class QueryTree(AntiCollisionProtocol):
    """Prefix-probing deterministic tree walk.

    Parameters
    ----------
    max_slots:
        Safety bound on the number of probes (default: none).  When the
        bound is hit -- which only happens under adversarial interference
        -- the protocol reports itself finished and leaves the remaining
        tags unidentified; the caller can inspect ``aborted``.
    """

    def __init__(self, max_slots: int | None = None) -> None:
        super().__init__()
        self.name = "QT"
        self.max_slots = max_slots
        self._queue: deque[BitVector] = deque()
        self.aborted = False

    def start(self, tags: Sequence[Tag]) -> None:
        super().start(tags)
        if tags and len({t.id_bits for t in tags}) > 1:
            raise ValueError("QueryTree requires uniform ID length")
        self._queue = deque([BitVector(0, 0)])
        self.aborted = False
        self.frames_started = 1  # one continuous logical frame

    # ------------------------------------------------------------------

    def responders(self) -> list[Tag]:
        if not self._queue:
            return []
        return self.prefix_responders(self._queue[0])

    def feedback(self, effective: SlotType, responders: list[Tag]) -> None:
        self._note_slot()
        self._probed(effective, self._id_bits())
        if self.max_slots is not None and self.slots_elapsed >= self.max_slots:
            self.aborted = True
            self._queue.clear()

    def frame_partition(self) -> list[list[Tag]] | None:
        if self.max_slots is not None:
            return None
        return self.prefix_frame(self._queue)

    def feedback_frame(self, effective, responder_counts, remaining) -> None:
        id_bits = self._id_bits()
        for verdict in effective:
            self._probed(verdict, id_bits)
        self.slots_elapsed += len(effective)

    def _id_bits(self) -> int:
        return self._tags[0].id_bits if self._tags else 0

    def _probed(self, effective: int, id_bits: int) -> None:
        """Retire the front prefix; a collision enqueues its children."""
        prefix = self._queue.popleft()
        # A prefix that already spans the whole ID can only collide on
        # duplicate or adversarial tags: drop the branch.
        if effective == SlotType.COLLIDED and prefix.length < id_bits:
            self._queue.append(prefix + _ZERO)
            self._queue.append(prefix + _ONE)

    @property
    def finished(self) -> bool:
        return not self._queue or not self.has_active_tags()
