"""Adaptive Binary Splitting (Myung & Lee, MobiHoc 2006; paper Section II).

ABS extends the binary-tree protocol for *repeated* inventories of a
slowly-changing population.  Each tag remembers its slot position from the
previous round in an **allocated-slot counter (ASC)**; the reader walks
slots with a **progressed-slot counter (PSC)**.  A tag transmits when
``ASC == PSC``.  Per-slot rules:

* **single**: the responder is identified (it keeps its ASC for the next
  round); the reader advances, ``PSC += 1``;
* **collided**: each responder adds a random bit to its ASC (splitting the
  set); every tag with ``ASC > PSC`` increments its ASC (making room);
* **idle**: every tag with ``ASC > PSC`` decrements its ASC (closing the
  gap) -- this is how slots freed by departed tags are reclaimed.

A round ends when PSC passes the largest ASC.  Because identified tags
retain their ASCs, the *next* round replays the final (collision-free)
schedule and completes in exactly one slot per tag -- the "starts the tag
identification only from readable cycles" property the paper quotes.  New
arrivals pick a random ASC in the current range and are split in on
collision.
"""

from __future__ import annotations

from typing import Sequence

from repro.core.detector import SlotType
from repro.protocols.base import AntiCollisionProtocol
from repro.tags.tag import Tag

__all__ = ["AdaptiveBinarySplitting"]


class AdaptiveBinarySplitting(AntiCollisionProtocol):
    """ABS: binary splitting with slot-schedule memory across rounds.

    The tag's ASC is stored in ``tag.counter``.  Call :meth:`start` with
    ``fresh=True`` (default) to forget prior schedules, or ``fresh=False``
    to begin a *readable* round that reuses the ASCs left by the previous
    round (tags must have been inventoried by this same protocol instance
    or carry valid counters).
    """

    framed = False

    def __init__(self) -> None:
        super().__init__()
        self.name = "ABS"
        self._psc = 0
        self._max_asc = 0

    def start(self, tags: Sequence[Tag], fresh: bool = True) -> None:
        AntiCollisionProtocol.start(self, tags)
        self.frames_started = 1  # one continuous logical frame
        self._psc = 0
        if fresh:
            for tag in self._tags:
                tag.counter = 0
        self._update_max_asc(self.active_tags())

    def _update_max_asc(self, active: list[Tag]) -> None:
        """``_max_asc`` is the largest ASC among the *active* tags (PSC - 1
        when none is left), kept exact after every call so that
        :attr:`finished` need not rescan the population each slot."""
        self._max_asc = max((t.counter for t in active), default=self._psc - 1)

    def admit(self, tag: Tag) -> None:
        """A new arrival draws a random ASC in the not-yet-progressed range
        so it contends exactly once this round."""
        super().admit(tag)
        hi = max(self._psc, self._max_asc)
        tag.counter = int(tag.rng.integers(self._psc, hi + 1))
        self._max_asc = max(self._max_asc, tag.counter)

    def withdraw(self, tag: Tag) -> None:
        super().withdraw(tag)
        self._update_max_asc(self.active_tags())

    # ------------------------------------------------------------------

    def responders(self) -> list[Tag]:
        return [t for t in self.active_tags() if t.counter == self._psc]

    def feedback(self, effective: SlotType, responders: list[Tag]) -> None:
        self._note_slot()
        active = self.active_tags()
        if effective is SlotType.COLLIDED:
            responder_set = set(id(t) for t in responders)
            for tag in active:
                if id(tag) in responder_set:
                    tag.counter += int(tag.rng.integers(0, 2))
                else:
                    if tag.counter > self._psc:
                        tag.counter += 1
        elif effective is SlotType.IDLE:
            for tag in active:
                if tag.counter > self._psc:
                    tag.counter -= 1
        else:  # single
            self._psc += 1
        self._update_max_asc(active)

    @property
    def finished(self) -> bool:
        """Round over when the reader has progressed past every ASC."""
        return not self.has_active_tags() or self._psc > self._max_asc
