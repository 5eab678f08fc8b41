"""Frozen tree protocols (differential test oracle).

Verbatim copies of :class:`~repro.protocols.bt.BinaryTree`,
:class:`~repro.protocols.abs_protocol.AdaptiveBinarySplitting`,
:class:`~repro.protocols.qt.QueryTree` and
:class:`~repro.protocols.aqs.AdaptiveQuerySplitting` as they stood while
every one of them ran slot by slot: BT and ABS rescan the population
twice per slot, QT and AQS probe one prefix at a time and export no
frame (the base class's ``frame_partition`` returns ``None``).  They
share the live base class's bookkeeping (``active_tags``,
``has_active_tags``, ``prefix_responders``), which
``tests/protocols/test_prefix_lookup.py`` pins against a scan.

``tests/protocols/test_protocol_reference.py`` runs them on the frozen
Reader of ``_reference_reader.py`` and holds the live Reader with the
live protocols to them field by field.  This module is not part of the
library and must not be imported from ``src/``.
"""

from __future__ import annotations

from collections import deque
from typing import Sequence

from repro.bits.bitvec import BitVector
from repro.core.detector import SlotType
from repro.protocols.base import AntiCollisionProtocol
from repro.tags.tag import Tag

__all__ = [
    "AdaptiveBinarySplitting",
    "AdaptiveQuerySplitting",
    "BinaryTree",
    "QueryTree",
]


class BinaryTree(AntiCollisionProtocol):
    """Counter-based binary splitting."""

    framed = False

    def __init__(self) -> None:
        super().__init__()
        self.name = "BT"
        self._started = False

    def start(self, tags: Sequence[Tag]) -> None:
        super().start(tags)
        for tag in self.active_tags():
            tag.counter = 0
        self._started = True
        # Tree protocols run one continuous logical frame; the paper's
        # Table VIII reports the slot total in its "# of frame" column.
        self.frames_started = 1

    def admit(self, tag: Tag) -> None:
        """A late arrival joins the current front group so it gets a chance
        immediately (it will typically cause a collision and be split in)."""
        super().admit(tag)
        tag.counter = 0

    # ------------------------------------------------------------------

    def responders(self) -> list[Tag]:
        return [t for t in self.active_tags() if t.counter == 0]

    def feedback(self, effective: SlotType, responders: list[Tag]) -> None:
        self._note_slot()
        responder_set = set(id(t) for t in responders)
        if effective is SlotType.COLLIDED:
            for tag in self.active_tags():
                if id(tag) in responder_set:
                    tag.counter += int(tag.rng.integers(0, 2))
                else:
                    tag.counter += 1
        else:
            # Idle or single: everyone still contending moves up one slot.
            for tag in self.active_tags():
                tag.counter -= 1

    @property
    def finished(self) -> bool:
        """Done when no tag is contending.

        The counter automaton guarantees progress: the front group (counter
        0) either resolves (idle/single) or splits (collision), and every
        non-collided slot strictly decreases the sum of counters.
        """
        return self._started and not self.has_active_tags()


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

    framed = False

    def __init__(self, max_slots: int | None = None) -> None:
        super().__init__()
        self.name = "QT"
        self.max_slots = max_slots
        self._queue: deque[BitVector] = deque()
        self._current: BitVector | None = None
        self.aborted = False

    def start(self, tags: Sequence[Tag]) -> None:
        super().start(tags)
        if tags and len({t.id_bits for t in tags}) > 1:
            raise ValueError("QueryTree requires uniform ID length")
        self._queue = deque([BitVector(0, 0)])
        self._current = None
        self.aborted = False
        self.frames_started = 1  # one continuous logical frame

    # ------------------------------------------------------------------

    def responders(self) -> list[Tag]:
        if not self._queue:
            return []
        self._current = self._queue[0]
        return self.prefix_responders(self._current)

    def feedback(self, effective: SlotType, responders: list[Tag]) -> None:
        self._note_slot()
        prefix = self._queue.popleft()
        if effective is SlotType.COLLIDED:
            id_bits = self._tags[0].id_bits if self._tags else 0
            if prefix.length >= id_bits:
                # Prefix already spans the whole ID: only duplicate or
                # adversarial tags can still collide here; drop the branch.
                pass
            else:
                self._queue.append(prefix + BitVector(0, 1))
                self._queue.append(prefix + BitVector(1, 1))
        if self.max_slots is not None and self.slots_elapsed >= self.max_slots:
            self.aborted = True
            self._queue.clear()

    @property
    def finished(self) -> bool:
        return not self._queue or not self.has_active_tags()


class AdaptiveQuerySplitting(AntiCollisionProtocol):
    """Query tree with a warm-start candidate queue."""

    framed = False

    def __init__(self, max_slots: int | None = None) -> None:
        super().__init__()
        self.name = "AQS"
        self.max_slots = max_slots
        self._queue: deque[BitVector] = deque()
        #: (prefix, was_idle) outcomes of this round, seeding the next.
        self.candidate_queue: list[tuple[BitVector, bool]] = []
        self.aborted = False

    def start(self, tags: Sequence[Tag], fresh: bool = True) -> None:
        if tags and len({t.id_bits for t in tags}) > 1:
            # feedback bounds the split depth by one l_id; a shorter ID
            # would stop the walk above the longer ones and leave them
            # unidentified without any error.
            raise ValueError("AdaptiveQuerySplitting requires uniform ID length")
        AntiCollisionProtocol.start(self, tags)
        self.frames_started = 1  # one continuous logical frame
        self.aborted = False
        if fresh or not self.candidate_queue:
            self._queue = deque([BitVector(0, 1), BitVector(1, 1)])
        else:
            self._queue = deque(self._compact(self.candidate_queue))
        self.candidate_queue = []

    @staticmethod
    def _compact(candidates: Sequence[tuple[BitVector, bool]]) -> list[BitVector]:
        """Merge *idle* sibling pairs up to their parent, repeatedly.

        Single-prefixes are kept verbatim: merging one with anything could
        put two tags back under one probe.  Merging two idle siblings is
        safe -- their parent covers the same (empty) region.
        """
        idle = {p.to_bitstring() for p, was_idle in candidates if was_idle}
        keep = [p for p, was_idle in candidates if not was_idle]
        changed = True
        while changed:
            changed = False
            for s in sorted(idle, key=len, reverse=True):
                if len(s) <= 1 or s not in idle:
                    continue
                sibling = s[:-1] + ("1" if s[-1] == "0" else "0")
                if sibling in idle:
                    idle.discard(s)
                    idle.discard(sibling)
                    idle.add(s[:-1])
                    changed = True
                    break
        merged = keep + [BitVector.from_bitstring(s) for s in sorted(idle)]
        merged.sort(key=lambda p: (p.length, p.to_bitstring()))
        return merged

    # ------------------------------------------------------------------

    def responders(self) -> list[Tag]:
        if not self._queue:
            return []
        return self.prefix_responders(self._queue[0])

    def feedback(self, effective: SlotType, responders: list[Tag]) -> None:
        self._note_slot()
        prefix = self._queue.popleft()
        if effective is SlotType.COLLIDED:
            id_bits = self._tags[0].id_bits if self._tags else 0
            if prefix.length < id_bits:
                self._queue.append(prefix + BitVector(0, 1))
                self._queue.append(prefix + BitVector(1, 1))
        else:
            # Remember readable prefixes for the next round's warm start.
            self.candidate_queue.append((prefix, effective is SlotType.IDLE))
        if self.max_slots is not None and self.slots_elapsed >= self.max_slots:
            self.aborted = True
            self._queue.clear()

    @property
    def finished(self) -> bool:
        if not self._queue:
            return True
        if not self.has_active_tags():
            # Early exit: every tag identified.  The unprobed prefixes would
            # all read idle; fold them into the candidates so the next
            # round's warm start still covers their regions.
            self.candidate_queue.extend((p, True) for p in self._queue)
            self._queue.clear()
            return True
        return False
