"""Adaptive Query Splitting (Myung & Lee; paper Section II).

AQS is to the Query Tree what ABS is to the Binary Tree: the reader
remembers the outcome of the previous round.  The prefixes that produced
*single* or *idle* slots last round form the starting queue of the next
round, so an unchanged population is re-inventoried without a single
collision, and a changed one only pays splitting cost where tags actually
moved.  (A fresh round starts from the two one-bit prefixes as in plain
QT.)

Idle prefixes are retained because a tag that just *arrived* may land under
one; dropping them would orphan arrivals.  To keep the queue from growing
without bound after departures, *idle sibling pairs* are merged back into
their parent between rounds (the parent is guaranteed idle too, so the
merge loses nothing); a single-prefix is never merged, since combining it
with its sibling would re-create the collision the previous round already
paid to resolve.

Probes are answered by
:meth:`~repro.protocols.base.AntiCollisionProtocol.prefix_responders`
(a bisection over the sorted IDs, as in :mod:`repro.protocols.qt`), and
every tag in a round must carry the same ID length.  As in QT, the queued
prefixes are disjoint, so the queue runs as one frame on the reader's
frame-batched path, and readable prefixes join the candidates in slot
order; a ``max_slots`` bound or jammers make the walk run slot by slot.
"""

from __future__ import annotations

from collections import deque
from typing import Sequence

from repro.bits.bitvec import BitVector
from repro.core.detector import SlotType
from repro.protocols.base import AntiCollisionProtocol
from repro.protocols.qt import QueryTree
from repro.tags.tag import Tag

__all__ = ["AdaptiveQuerySplitting"]


class AdaptiveQuerySplitting(QueryTree):
    """Query tree with a warm-start candidate queue.

    The probe loop (slot by slot or as one frame) is :class:`QueryTree`'s;
    AQS seeds the queue from the last round and records its readable
    prefixes.
    """

    def __init__(self, max_slots: int | None = None) -> None:
        super().__init__(max_slots)
        self.name = "AQS"
        #: (prefix, was_idle) outcomes of this round, seeding the next.
        self.candidate_queue: list[tuple[BitVector, bool]] = []

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

    def _probed(self, effective: int, id_bits: int) -> None:
        if effective != SlotType.COLLIDED:
            # Remember readable prefixes for the next round's warm start.
            self.candidate_queue.append(
                (self._queue[0], effective == SlotType.IDLE)
            )
        super()._probed(effective, id_bits)

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
