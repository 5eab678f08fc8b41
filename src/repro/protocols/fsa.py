"""Framed Slotted ALOHA with a fixed frame size (paper Section III-A).

The reader divides time into frames of ℱ slots.  Each unidentified tag
picks a slot uniformly at random within the frame and transmits there.
Tags that collide (or were misdetected) re-contend in the next frame; the
reader keeps issuing ℱ-slot frames until every tag is identified.

This constant-frame policy is the one that reproduces the paper's
Table VII slot distributions (DESIGN.md §5): the frame size stays at the
configured ℱ even as the backlog shrinks, which is why late frames are
dominated by idle slots.  For frame-size adaptation see
:class:`repro.protocols.dfsa.DynamicFSA` and
:class:`repro.protocols.qadaptive.QAdaptive`.

Termination: a real reader never observes the backlog directly, only slot
outcomes.  The default policy therefore keeps issuing frames until one
passes with *no* responder at all (an all-idle frame -- since every
unidentified tag answers somewhere in every frame, an all-idle frame proves
the backlog is empty).  That confirmation frame is what lifts the paper's
idle counts in Table VII by exactly ℱ over the identifying frames.
"""

from __future__ import annotations

from typing import Sequence

from repro.core.detector import SlotType
from repro.protocols.base import AntiCollisionProtocol
from repro.tags.tag import Tag

__all__ = ["FramedSlottedAloha", "TERMINATIONS"]

#: Shared empty bucket for frame partitions (immutable: most slots of a
#: late frame are idle, so one sentinel beats per-slot list allocation).
_NO_TAGS: tuple[Tag, ...] = ()

#: FSA termination policies:
#: ``"confirm"``   -- stop after a frame with zero responders (the
#:                    knowledge-free reader of the paper's Table VII);
#: ``"frame"``     -- stop at the end of the frame that identified the last
#:                    tag (a reader that knows n);
#: ``"immediate"`` -- stop at the identifying slot itself (an oracle;
#:                    useful as an efficiency upper bound).
TERMINATIONS = ("confirm", "frame", "immediate")


class FramedSlottedAloha(AntiCollisionProtocol):
    """Fixed-frame FSA.

    Parameters
    ----------
    frame_size:
        ℱ, the number of slots per frame (Table VI pairs ℱ with the tag
        count, e.g. 30 slots for 50 tags).
    termination:
        One of :data:`TERMINATIONS`; default ``"confirm"`` (matches the
        paper's accounting).
    """

    def __init__(self, frame_size: int, termination: str = "confirm") -> None:
        super().__init__()
        if frame_size < 1:
            raise ValueError("frame_size must be >= 1")
        if termination not in TERMINATIONS:
            raise ValueError(
                f"termination must be one of {TERMINATIONS}, got {termination!r}"
            )
        self.frame_size = frame_size
        self.termination = termination
        self.name = f"FSA(F={frame_size})"
        self._slot_in_frame = 0
        self._frame_slots: dict[int, list[Tag]] = {}
        self._frame_had_responder = False
        self._done = False

    # ------------------------------------------------------------------

    def start(self, tags: Sequence[Tag]) -> None:
        super().start(tags)
        self._done = False
        if not self.active_tags() and self.termination != "confirm":
            self._done = True
            return
        self._begin_frame()

    def _begin_frame(self) -> None:
        """All still-active tags draw a slot uniformly in [0, ℱ)."""
        self.frames_started += 1
        self._slot_in_frame = 0
        self._frame_had_responder = False
        self._frame_slots = {}
        for tag in self.active_tags():
            choice = int(tag.rng.integers(0, self.frame_size))
            tag.slot_choice = choice
            self._frame_slots.setdefault(choice, []).append(tag)

    def admit(self, tag: Tag) -> None:
        """A tag arriving mid-frame waits for the next frame, as a real tag
        that missed the Query would."""
        super().admit(tag)
        tag.slot_choice = -1
        self._done = False

    def withdraw(self, tag: Tag) -> None:
        super().withdraw(tag)
        bucket = self._frame_slots.get(tag.slot_choice)
        if bucket and tag in bucket:
            bucket.remove(tag)

    # ------------------------------------------------------------------

    def responders(self) -> list[Tag]:
        return [
            t
            for t in self._frame_slots.get(self._slot_in_frame, [])
            if not t.identified
        ]

    def frame_partition(self):
        """Whole-frame responder buckets, at a frame boundary only.

        ``"immediate"`` termination is excluded: it can stop mid-frame,
        and the batched reader charges channel/detector bookkeeping for
        the full frame upfront.  The coverage check (scheduled == active)
        guards against callers that identified or admitted tags outside
        the reader loop; any mismatch falls back to the per-slot path.
        """
        if self._done or self._slot_in_frame != 0:
            return None
        if self.termination == "immediate":
            return None
        buckets: list[Sequence[Tag]] = [_NO_TAGS] * self.frame_size
        scheduled = 0
        for slot, bucket in self._frame_slots.items():
            if bucket:
                buckets[slot] = bucket
                scheduled += len(bucket)
        if scheduled != sum(1 for t in self._tags if not t.identified):
            return None
        return buckets

    def feedback_frame(self, effective, responder_counts, remaining) -> None:
        del effective  # fixed-frame FSA only needs occupancy, not types
        frame = self.frame_size
        self.slots_elapsed += frame
        self._slot_in_frame = frame
        self._frame_had_responder = any(responder_counts)
        backlog = bool(remaining[frame - 1])
        if self.termination == "confirm":
            if not self._frame_had_responder and not backlog:
                self._done = True
            else:
                self._begin_frame()
        elif backlog:
            self._begin_frame()
        else:
            self._done = True

    def feedback(self, effective: SlotType, responders: list[Tag]) -> None:
        self._note_slot()
        self._slot_in_frame += 1
        if responders:
            self._frame_had_responder = True
        backlog = self.has_active_tags()
        if self.termination == "immediate" and not backlog:
            self._done = True
            return
        if self._slot_in_frame >= self.frame_size:
            if self.termination == "confirm":
                # An all-idle frame proves an empty backlog -- unless tags
                # were admitted mid-frame (mobility) and are still waiting.
                if not self._frame_had_responder and not backlog:
                    self._done = True
                else:
                    self._begin_frame()
            elif backlog:
                self._begin_frame()
            else:
                self._done = True

    @property
    def finished(self) -> bool:
        """See :data:`TERMINATIONS` for when an inventory ends."""
        return self._done
