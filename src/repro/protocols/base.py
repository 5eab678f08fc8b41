"""The protocol interface shared by FSA- and tree-family algorithms.

An anti-collision protocol is a slot scheduler: given feedback about each
slot's (detected) type it decides which unidentified tags transmit next.
The reader (:class:`repro.sim.reader.Reader`) drives the loop::

    protocol.start(tags)
    while not protocol.finished:
        responders = protocol.responders()
        ... compose signals, classify with the detector ...
        protocol.feedback(effective_type, responders)

``feedback`` receives the *effective* slot type -- normally the true one,
but under the ``"lost"`` misdetection policy a missed collision is fed back
as SINGLE, because that is what the tags experience (they hear an ACK and
retire).  Protocols must therefore never assume a SINGLE slot had exactly
one responder.

Protocols also expose ``frames_started`` so the harness can report the
paper's "# of frame" column; tree protocols count the whole identification
as a sequence of slots and report the slot count there, matching the
paper's Table VIII convention.

Query-tree protocols answer each prefix probe with
:meth:`AntiCollisionProtocol.prefix_responders`: the tags under a prefix
are one contiguous run of the sorted integer IDs, so a probe costs two
bisections plus the matches instead of a pass over every tag.
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from bisect import bisect_left
from typing import Sequence

from repro.bits.bitvec import BitVector
from repro.core.detector import SlotType
from repro.tags.tag import Tag

__all__ = ["AntiCollisionProtocol"]

#: :meth:`AntiCollisionProtocol.prefix_responders` index for populations
#: that must be scanned tag by tag.
_SCAN: tuple[list[int], list[int], int] = ([], [], 0)


class AntiCollisionProtocol(ABC):
    """Base class for slot-scheduling protocols."""

    #: Human-readable protocol name.
    name: str = "abstract"

    def __init__(self) -> None:
        self._tags: list[Tag] = []
        self._live: list[Tag] = []
        self._prefix_index: tuple[list[int], list[int], int] | None = None
        self.frames_started = 0
        self.slots_elapsed = 0

    # ------------------------------------------------------------------

    @property
    def tags(self) -> list[Tag]:
        return self._tags

    def active_tags(self) -> list[Tag]:
        """Tags still contending (not identified / retired)."""
        return [t for t in self._tags if not t.identified]

    def has_active_tags(self) -> bool:
        """Whether any tag is still contending -- amortized O(1).

        ``_live`` mirrors ``_tags`` but sheds identified tags from its
        tail as they are discovered; identification is monotone within a
        round (``start`` rebuilds the list), so each tag is popped at
        most once and the per-slot backlog check never rescans the whole
        population the way ``bool(active_tags())`` did.
        """
        live = self._live
        while live and live[-1].identified:
            live.pop()
        return bool(live)

    def start(self, tags: Sequence[Tag]) -> None:
        """Begin an identification round over ``tags``.

        Subclasses extend this to set up their initial schedule; they must
        call ``super().start(tags)`` first.
        """
        self._tags = list(tags)
        self._live = list(self._tags)
        self._prefix_index = None
        self.frames_started = 0
        self.slots_elapsed = 0

    def admit(self, tag: Tag) -> None:
        """A tag entered the interrogation range mid-round (mobility).

        Default: it joins the contention set and will be scheduled from the
        next frame / splitting decision.  Subclasses refine this.
        """
        self._tags.append(tag)
        self._live.append(tag)
        self._prefix_index = None

    def withdraw(self, tag: Tag) -> None:
        """A tag left the range mid-round; it stops responding."""
        if tag in self._tags:
            self._tags.remove(tag)
        if tag in self._live:
            self._live.remove(tag)
        self._prefix_index = None

    def prefix_responders(self, prefix: BitVector) -> list[Tag]:
        """The active tags answering a Query-Tree probe with ``prefix``.

        Equal, element for element and in ``active_tags()`` order, to
        ``[t for t in active_tags() if t.responds_to_prefix(prefix)]``.
        An ``l_id``-bit ID starts with the ``L``-bit prefix ``p`` iff it
        lies in ``[p << (l_id - L), (p + 1) << (l_id - L))``, so the
        matches are found by bisecting the sorted IDs; their positions are
        then sorted back into ``_tags`` order and identified tags skipped.
        The index is built on first use after :meth:`start` and dropped by
        :meth:`admit` / :meth:`withdraw`.  Populations that the ID range
        does not describe -- a tag class overriding ``responds_to_prefix``
        (the jammers of :mod:`repro.security.blocker`) or mixed ID lengths
        -- are scanned tag by tag instead.
        """
        index = self._prefix_lookup()
        if index is _SCAN:
            return [
                t for t in self.active_tags() if t.responds_to_prefix(prefix)
            ]
        return self._prefix_matches(index, prefix)

    def prefix_frame(self, prefixes: Sequence[BitVector]) -> list[list[Tag]] | None:
        """A prefix queue's probes as one frame: :meth:`prefix_responders`
        of each prefix in order, up to the last one that any tag answers
        (every prefix when none does).

        Disjoint prefixes split the active tags between them, so probing
        the whole queue upfront gives each probe the responders it would
        get in its own slot.  The probes after the last answered one run
        only if a backlog remains, which is known only after the frame is
        classified, so they are left for the next frame.  ``None`` when
        the population is scanned tag by tag: a jammer answers every
        prefix, so the queue no longer partitions the tags.
        """
        index = self._prefix_lookup()
        if index is _SCAN or not prefixes:
            return None
        buckets = [self._prefix_matches(index, p) for p in prefixes]
        last = max(
            (i for i, bucket in enumerate(buckets) if bucket),
            default=len(buckets) - 1,
        )
        return buckets[: last + 1]

    def _prefix_lookup(self) -> tuple[list[int], list[int], int]:
        index = self._prefix_index
        if index is None:
            index = self._prefix_index = self._build_prefix_index()
        return index

    def _prefix_matches(
        self, index: tuple[list[int], list[int], int], prefix: BitVector
    ) -> list[Tag]:
        ids, positions, id_bits = index
        shift = id_bits - prefix.length
        if shift < 0:
            return []
        value = prefix.to_int()
        lo = bisect_left(ids, value << shift)
        hi = bisect_left(ids, (value + 1) << shift, lo)
        tags = self._tags
        return [
            tags[i] for i in sorted(positions[lo:hi]) if not tags[i].identified
        ]

    def _build_prefix_index(self) -> tuple[list[int], list[int], int]:
        """``(sorted IDs, their positions in _tags, l_id)``, or ``_SCAN``."""
        tags = self._tags
        plain = Tag.responds_to_prefix
        if len({t.id_bits for t in tags}) > 1 or any(
            type(t).responds_to_prefix is not plain for t in tags
        ):
            return _SCAN
        order = sorted(range(len(tags)), key=lambda i: tags[i].tag_id)
        id_bits = tags[0].id_bits if tags else 0
        return [tags[i].tag_id for i in order], order, id_bits

    # ------------------------------------------------------------------

    @abstractmethod
    def responders(self) -> list[Tag]:
        """The tags that transmit in the next slot (may be empty)."""

    @abstractmethod
    def feedback(self, effective: SlotType, responders: list[Tag]) -> None:
        """Deliver the reader's verdict for the slot just run.

        ``responders`` is the same list :meth:`responders` returned, so
        implementations need not recompute it.  Identified/retired marking
        is the *reader's* job; the protocol only updates its schedule.
        """

    # -- frame-batched fast path ---------------------------------------

    def frame_partition(self) -> list[Sequence[Tag]] | None:
        """The responder buckets of the next run of slots, as one frame.

        A protocol whose schedule is known for several slots ahead returns
        one bucket per slot (bucket ``s`` holding the tags
        :meth:`responders` would return at slot ``s``), letting the reader
        superpose and classify the whole run in vectorized form: an
        FSA-family frame (every active tag in exactly one bucket) or a
        query tree's prefix queue (:meth:`prefix_frame`).  ``None`` means
        "run the next slot by itself": the default, which BT and ABS keep
        (every verdict moves every counter), and required whenever the
        schedule cannot be known upfront (mid-frame position,
        early-termination modes, tags admitted but not yet scheduled, a
        protocol ``max_slots`` bound).  The reader asks before every slot
        unless its channel captures; the call must not change any state.
        """
        return None

    def feedback_frame(
        self,
        effective: Sequence[int],
        responder_counts: Sequence[int],
        remaining: Sequence[int],
    ) -> None:
        """Deliver one whole frame's verdicts at once (reader fast path).

        Arguments are per-slot arrays over the frame last returned by
        :meth:`frame_partition`: the effective slot types (``SlotType``
        values as ints), the ground-truth responder counts, and how many
        of the frame's responders are still unidentified *after* each
        slot.  State updates must be identical
        to feeding the same verdicts through :meth:`feedback` slot by
        slot -- including ``slots_elapsed``, frame counters, and the RNG
        draws that schedule the next frame.
        """
        raise NotImplementedError(
            f"{self.name} does not support frame-batched feedback"
        )

    @property
    @abstractmethod
    def finished(self) -> bool:
        """True when the protocol has no more slots to run."""

    # ------------------------------------------------------------------

    def _note_slot(self) -> None:
        self.slots_elapsed += 1

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"{type(self).__name__}(name={self.name!r})"
