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
from repro.protocols.bt import CounterSplitting
from repro.tags.tag import Tag

__all__ = ["AdaptiveBinarySplitting"]


class AdaptiveBinarySplitting(CounterSplitting):
    """ABS: binary splitting with slot-schedule memory across rounds.

    The tag's ASC is stored in ``tag.counter``.  Call :meth:`start` with
    ``fresh=True`` (default) to forget prior schedules, or ``fresh=False``
    to begin a *readable* round that reuses the ASCs left by the previous
    round (tags must have been inventoried by this same protocol instance
    or carry valid counters).

    On a fresh round ABS runs BT's automaton (:class:`CounterSplitting`):
    a single advances the PSC instead of every counter, and tags below
    the PSC stay put.
    """

    def __init__(self) -> None:
        super().__init__()
        self.name = "ABS"

    def start(self, tags: Sequence[Tag], fresh: bool = True) -> None:
        AntiCollisionProtocol.start(self, tags)
        self.frames_started = 1  # one continuous logical frame
        self._psc = 0
        if fresh:
            for tag in self._tags:
                tag.counter = 0
        self._group_active()

    @property
    def _max_asc(self) -> int:
        """The largest ASC among the active tags (PSC - 1 when none is
        left), read off the groups: the deepest one is never empty."""
        if self._groups:
            return self._psc + len(self._groups) - 1
        return max((t.counter for t in self._stranded), default=self._psc - 1)

    def admit(self, tag: Tag) -> None:
        """A new arrival draws a random ASC in the not-yet-progressed range
        so it contends exactly once this round."""
        super().admit(tag)
        hi = max(self._psc, self._max_asc)
        tag.counter = int(tag.rng.integers(self._psc, hi + 1))
        if not tag.identified:
            self._place(tag)

    # ------------------------------------------------------------------

    def _resolved(self, effective: SlotType, survivors: list[Tag]) -> None:
        if effective is SlotType.IDLE:
            # Close the gap: every tag with ASC > PSC moves down one.
            for group in self._groups:
                for tag in group:
                    tag.counter -= 1
        else:  # single
            self._psc += 1
        self._stranded += survivors

    @property
    def finished(self) -> bool:
        """Round over when the reader has progressed past every ASC."""
        return not self._groups
