"""The counter-based Binary Tree protocol (paper Section III-B, Figure 2).

Every tag owns a counter, initialized to 0.  In each slot the tags whose
counter equals 0 transmit.  After the reader announces the slot type:

* **collided**: each tag involved in the collision draws a random bit and
  adds it to its counter (splitting the colliding set in two); every other
  unidentified tag increments its counter by 1 (making room for the new
  subset);
* **idle or single**: every unidentified tag decrements its counter by 1;
  a tag identified in a single slot retires and keeps silent.

The identification is one continuous sequence of slots (a depth-first walk
of a random binary tree); the paper's Table VIII reports the total slot
count in its "# of frame" column, and Lemma 2 gives the averages:
``2.885n`` slots total = ``n`` single + ``1.443n`` collided + ``0.442n``
idle.
"""

from __future__ import annotations

from abc import abstractmethod
from typing import Sequence

from repro.core.detector import SlotType
from repro.protocols.base import AntiCollisionProtocol
from repro.tags.tag import Tag

__all__ = ["BinaryTree", "CounterSplitting"]


class CounterSplitting(AntiCollisionProtocol):
    """Binary splitting over per-tag counters, shared by BT and ABS.

    A tag transmits when its counter equals the reader's progressed-slot
    counter ``_psc`` (ABS's PSC; always 0 in BT).  The active tags are
    kept as contention groups by *offset* ``counter - _psc``, so a slot
    walks the groups once instead of rescanning the population:

    * ``_groups`` is a stack: ``_groups[-1]`` is the front group (offset
      0, the next slot's responders), ``_groups[-1 - k]`` holds offset
      ``k`` (possibly empty) and ``_groups[0]`` is never empty.  Every
      group keeps ``_tags`` order.
    * ``_stranded`` holds the active tags below offset 0: responders
      that a SINGLE verdict left unidentified (a noisy single read as
      idle, or a jammer's phantom single).

    A collision splits the front group by one random bit per tag, drawn
    in group order, and moves every deeper group one offset up; what a
    non-collided slot does is the subclass's :meth:`_resolved`.  Every
    active tag's ``counter`` is exact at every slot boundary.
    """

    def __init__(self) -> None:
        super().__init__()
        self._groups: list[list[Tag]] = []
        self._stranded: list[Tag] = []
        self._psc = 0

    def _group_active(self) -> None:
        """Build the groups from the active tags' counters."""
        self._groups, self._stranded = [], []
        for tag in self.active_tags():
            self._place(tag)

    def _place(self, tag: Tag) -> None:
        """Add an active tag to the group its counter names."""
        offset = tag.counter - self._psc
        if offset < 0:
            self._stranded.append(tag)
            return
        groups = self._groups
        if offset >= len(groups):
            groups[:0] = [[] for _ in range(offset + 1 - len(groups))]
        groups[-1 - offset].append(tag)

    def withdraw(self, tag: Tag) -> None:
        super().withdraw(tag)
        groups = self._groups
        offset = tag.counter - self._psc
        group = (
            groups[-1 - offset] if 0 <= offset < len(groups) else self._stranded
        )
        if tag in group:
            group.remove(tag)
        while groups and not groups[0]:
            del groups[0]

    # ------------------------------------------------------------------

    def responders(self) -> list[Tag]:
        groups = self._groups
        return groups[-1] if groups else []

    def feedback(self, effective: SlotType, responders: list[Tag]) -> None:
        self._note_slot()
        groups = self._groups
        front = groups.pop() if groups else []
        if effective is SlotType.COLLIDED:
            zero: list[Tag] = []
            one: list[Tag] = []
            for tag in front:
                if tag.identified:  # a captured responder retired
                    continue
                if tag.rng.integers(0, 2):
                    tag.counter += 1
                    one.append(tag)
                else:
                    zero.append(tag)
            for group in groups:
                for tag in group:
                    tag.counter += 1
            self._collided(zero)
            if groups or one:
                groups.append(one)
            if groups or zero:
                groups.append(zero)
        else:
            self._resolved(
                effective, [tag for tag in front if not tag.identified]
            )

    def _collided(self, zero: list[Tag]) -> None:
        """Move the stranded tags after a collision; ``zero`` is the new
        front group, which tags reaching offset 0 join.  Default: they
        stay where they are."""

    @abstractmethod
    def _resolved(self, effective: SlotType, survivors: list[Tag]) -> None:
        """Advance past an idle or single slot whose front group was
        popped; ``survivors`` are its unidentified responders."""


class BinaryTree(CounterSplitting):
    """Counter-based binary splitting."""

    def __init__(self) -> None:
        super().__init__()
        self.name = "BT"
        self._started = False

    def start(self, tags: Sequence[Tag]) -> None:
        super().start(tags)
        for tag in self.active_tags():
            tag.counter = 0
        self._group_active()
        self._started = True
        # Tree protocols run one continuous logical frame; the paper's
        # Table VIII reports the slot total in its "# of frame" column.
        self.frames_started = 1

    def admit(self, tag: Tag) -> None:
        """A late arrival joins the current front group so it gets a chance
        immediately (it will typically cause a collision and be split in)."""
        super().admit(tag)
        tag.counter = 0
        if not tag.identified:
            self._place(tag)

    # ------------------------------------------------------------------

    def _collided(self, zero: list[Tag]) -> None:
        # Every other unidentified tag moves up one, so the stranded tags
        # at counter -1 rejoin the front group.
        stranded = self._stranded
        for tag in stranded:
            tag.counter += 1
        back = [tag for tag in stranded if tag.counter == 0]
        if back:
            self._stranded = [tag for tag in stranded if tag.counter]
            order = {id(tag): i for i, tag in enumerate(self._tags)}
            zero += back
            zero.sort(key=lambda tag: order[id(tag)])

    def _resolved(self, effective: SlotType, survivors: list[Tag]) -> None:
        # Idle or single: everyone still contending moves down one slot.
        for group in self._groups:
            for tag in group:
                tag.counter -= 1
        self._stranded += survivors
        for tag in self._stranded:
            tag.counter -= 1

    @property
    def finished(self) -> bool:
        """Done when no tag is contending.

        The counter automaton guarantees progress: the front group (counter
        0) either resolves (idle/single) or splits (collision), and every
        non-collided slot strictly decreases the sum of counters.
        """
        return self._started and not self.has_active_tags()
