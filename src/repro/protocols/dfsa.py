"""Dynamic Framed Slotted ALOHA (Lee et al., MobiQuitous 2005).

Like fixed FSA, but after every frame the reader re-estimates the backlog
from the observed slot mix and sizes the next frame to match (Lemma 1:
throughput is maximized when ℱ = n).  The estimator is pluggable
(:mod:`repro.protocols.estimators`); Schoute's 2.39-per-collision rule is
the default, as in Lee's EDFSA lineage.
"""

from __future__ import annotations

from typing import Sequence

from repro.core.detector import SlotType
from repro.protocols.base import AntiCollisionProtocol
from repro.protocols.estimators import (
    BacklogEstimator,
    FrameObservation,
    SchouteEstimator,
)
from repro.tags.tag import Tag

__all__ = ["DynamicFSA"]

#: Shared empty bucket for frame partitions (see ``fsa._NO_TAGS``).
_NO_TAGS: tuple[Tag, ...] = ()


class DynamicFSA(AntiCollisionProtocol):
    """Frame-by-frame adaptive FSA.

    Parameters
    ----------
    initial_frame_size:
        ℱ for the first frame (the reader has no estimate yet).
    estimator:
        Backlog estimator applied to each completed frame.
    min_frame_size / max_frame_size:
        Clamp for the adapted frame length (readers cannot issue arbitrarily
        long or short frames; Gen2 bounds Q to [0, 15]).
    """

    def __init__(
        self,
        initial_frame_size: int = 16,
        estimator: BacklogEstimator | None = None,
        min_frame_size: int = 1,
        max_frame_size: int = 1 << 15,
    ) -> None:
        super().__init__()
        if initial_frame_size < 1:
            raise ValueError("initial_frame_size must be >= 1")
        if not 1 <= min_frame_size <= max_frame_size:
            raise ValueError("need 1 <= min_frame_size <= max_frame_size")
        self.estimator = estimator if estimator is not None else SchouteEstimator()
        self.initial_frame_size = initial_frame_size
        self.min_frame_size = min_frame_size
        self.max_frame_size = max_frame_size
        self.name = f"DFSA({self.estimator.name})"
        self.frame_size = initial_frame_size
        self._done = False
        self._slot_in_frame = 0
        self._frame_slots: dict[int, list[Tag]] = {}
        self._frame_counts = [0, 0, 0]  # idle, single, collided
        #: History of (frame_size, backlog_estimate) pairs, for analysis.
        self.adaptation_history: list[tuple[int, int]] = []

    # ------------------------------------------------------------------

    def start(self, tags: Sequence[Tag]) -> None:
        super().start(tags)
        self.frame_size = self.initial_frame_size
        self.adaptation_history = []
        self._done = not self.has_active_tags()
        if not self._done:
            self._begin_frame()

    def _begin_frame(self) -> None:
        self.frames_started += 1
        self._slot_in_frame = 0
        self._frame_counts = [0, 0, 0]
        self._frame_slots = {}
        for tag in self.active_tags():
            choice = int(tag.rng.integers(0, self.frame_size))
            tag.slot_choice = choice
            self._frame_slots.setdefault(choice, []).append(tag)

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

        Same contract as :meth:`FramedSlottedAloha.frame_partition`; DFSA
        frames always run to completion, so no termination mode needs
        excluding.  The coverage check (scheduled == active) guards
        against out-of-band identification/admission and falls back to
        the per-slot path on any mismatch.
        """
        if self._done or self._slot_in_frame != 0:
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
        del responder_counts  # the estimator sees effective types only
        frame = self.frame_size
        self.slots_elapsed += frame
        self._slot_in_frame = frame
        counts = [0, 0, 0]
        for kind in effective:
            counts[kind] += 1
        self._frame_counts = counts
        if remaining[frame - 1]:
            self._adapt()
            self._begin_frame()
        else:
            self._done = True

    def feedback(self, effective: SlotType, responders: list[Tag]) -> None:
        self._note_slot()
        self._frame_counts[int(effective)] += 1
        self._slot_in_frame += 1
        if self._slot_in_frame >= self.frame_size:
            # The frame always runs to completion: a real reader cannot see
            # an empty backlog, only an all-idle frame.
            if self.has_active_tags():
                self._adapt()
                self._begin_frame()
            else:
                self._done = True

    def _adapt(self) -> None:
        obs = FrameObservation(
            frame_size=self.frame_size,
            idle=self._frame_counts[int(SlotType.IDLE)],
            single=self._frame_counts[int(SlotType.SINGLE)],
            collided=self._frame_counts[int(SlotType.COLLIDED)],
        )
        backlog = self.estimator.backlog(obs)
        self.frame_size = max(
            self.min_frame_size, min(self.max_frame_size, max(1, backlog))
        )
        self.adaptation_history.append((self.frame_size, backlog))

    @property
    def finished(self) -> bool:
        return self._done

    def admit(self, tag: Tag) -> None:
        """Late arrivals contend from the next frame."""
        super().admit(tag)
        tag.slot_choice = -1
        self._done = False
