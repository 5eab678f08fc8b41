"""The EPC Gen2 'Q-adaptive' algorithm (paper Section II).

Gen2 readers maintain a floating-point parameter ``Q_fp``.  Tags draw a
slot counter uniformly from ``[0, 2^Q - 1]`` with ``Q = round(Q_fp)``; each
*QueryRep* decrements every counter, and a tag transmits when its counter
hits zero.  After each slot the reader nudges ``Q_fp``:

* collided slot: ``Q_fp = min(15, Q_fp + C)``;
* idle slot:     ``Q_fp = max(0,  Q_fp - C)``;
* single slot:   unchanged,

with ``C`` typically in [0.1, 0.5].  When ``round(Q_fp)`` moves away from
the ``Q`` in force, the reader issues a *QueryAdjust* and all unidentified
tags redraw from the new range -- this is the paper's description of the
reader "ending the current frame immediately and launching a new detecting
frame".

Simplifications vs. the full Gen2 state machine (documented, behaviour-
preserving for collision statistics): no session flags or select masks, and
collided tags simply redraw at the next QueryAdjust/Query rather than
waiting out the round.
"""

from __future__ import annotations

from typing import Sequence

from repro.core.detector import SlotType
from repro.protocols.base import AntiCollisionProtocol
from repro.tags.tag import Tag

__all__ = ["QAdaptive"]


class QAdaptive(AntiCollisionProtocol):
    """EPC Class-1 Gen-2 style slot-count adaptation.

    Parameters
    ----------
    initial_q:
        Starting Q (Gen2 default 4 -> 16-slot rounds).
    c:
        The adjustment step C (0.1 <= C <= 0.5 per the standard's guidance).
    """

    Q_MIN, Q_MAX = 0.0, 15.0

    def __init__(self, initial_q: float = 4.0, c: float = 0.3) -> None:
        super().__init__()
        if not self.Q_MIN <= initial_q <= self.Q_MAX:
            raise ValueError("initial_q must be within [0, 15]")
        if not 0.0 < c <= 1.0:
            raise ValueError("c must be in (0, 1]")
        self.initial_q = initial_q
        self.c = c
        self.name = f"Q-Adaptive(C={c})"
        self.q_fp = initial_q
        self.q = round(initial_q)
        #: Q trajectory, one entry per slot (for analysis/plots).
        self.q_history: list[float] = []
        self._collided_pool: list[Tag] = []

    # ------------------------------------------------------------------

    def start(self, tags: Sequence[Tag]) -> None:
        super().start(tags)
        self.q_fp = self.initial_q
        self.q = round(self.initial_q)
        self.q_history = []
        self._collided_pool = []
        self._issue_query(self.active_tags())

    def _issue_query(self, contenders: list[Tag]) -> None:
        """Query/QueryAdjust: contenders draw from [0, 2^Q - 1]."""
        self.frames_started += 1
        span = 1 << self.q
        for tag in contenders:
            tag.counter = int(tag.rng.integers(0, span))
        self._collided_pool = []

    def admit(self, tag: Tag) -> None:
        super().admit(tag)
        tag.counter = int(tag.rng.integers(0, 1 << self.q))

    # ------------------------------------------------------------------

    def responders(self) -> list[Tag]:
        return [t for t in self.active_tags() if t.counter == 0]

    def feedback(self, effective: SlotType, responders: list[Tag]) -> None:
        self._note_slot()
        self.q_history.append(self.q_fp)
        if effective is SlotType.COLLIDED:
            self.q_fp = min(self.Q_MAX, self.q_fp + self.c)
            # Collided tags park until the next Query(Adjust).
            for tag in responders:
                self._collided_pool.append(tag)
                tag.counter = -1
        elif effective is SlotType.IDLE:
            self.q_fp = max(self.Q_MIN, self.q_fp - self.c)
        if self.finished:
            return
        new_q = round(self.q_fp)
        active = self.active_tags()
        waiting = [t for t in active if t.counter > 0]
        if new_q != self.q:
            # QueryAdjust: everyone still unidentified redraws.
            self.q = new_q
            self._issue_query(active)
            return
        if not waiting and not any(t.counter == 0 for t in active):
            # Round exhausted (all counters spent or parked): new Query.
            self._issue_query(active)
            return
        # QueryRep: decrement all positive counters.
        for tag in waiting:
            tag.counter -= 1

    @property
    def finished(self) -> bool:
        return not self.has_active_tags()
