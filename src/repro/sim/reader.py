"""The reader: one inventory = protocol × detector × channel × timing.

:class:`Reader.run_inventory` drives the slot loop the whole reproduction
rests on, on packed int payloads::

    protocol.start(tags)
    while not protocol.finished:
        responders <- protocol
        value      <- channel.transmit_packed([packed payload per responder])
        verdict    <- detector.classify_packed(value, len(responders))
        time      += timing.slot_duration(detector, verdict)
        ... apply misdetection policy, mark identifications ...
        protocol.feedback(effective_type, responders)

When the protocol exports the schedule of a run of slots
(:meth:`~repro.protocols.base.AntiCollisionProtocol.frame_partition`: an
FSA-family frame, or a query tree's queue of disjoint prefixes), the
reader runs that frame in one vectorized pass instead, with identical RNG
draws, verdicts, traces and counters.  BT and ABS, whose every verdict
moves every counter, run slot by slot, and so does everything on a
capturing channel, whose draws interleave per slot.

Misdetection policies (DESIGN.md §5) govern what happens when the detector
calls a collided slot single:

* ``"paper"``   -- the error is *counted* (it is exactly what Figure 5's
  accuracy metric measures) but the identification process continues from
  ground truth: the collided tags re-contend.  This matches the paper's
  accounting, which evaluates accuracy separately from the time metrics.
* ``"crc_guard"`` -- the second-phase ID transmission carries a CRC, so the
  reader *notices* the garbled ID and treats the slot as collided; every
  single slot pays ``l_crc·τ`` extra.  Pair with
  ``TimingModel(guard_id_phase=True)``.
* ``"lost"``    -- the reader ACKs garbage; the collided tags hear the ACK,
  believe themselves identified and retire silently.  They are counted in
  ``lost_tags`` and the inventory "completes" without them -- the failure
  mode the accuracy experiment is implicitly about.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from repro.bits.channel import Channel
from repro.core.detector import CollisionDetector, SlotType
from repro.core.timing import TimingModel
from repro.obs import instruments as _inst
from repro.obs.profiling import profile
from repro.obs.state import STATE as _OBS
from repro.protocols.base import AntiCollisionProtocol
from repro.sim.metrics import InventoryStats
from repro.sim.trace import SlotRecord, build_record
from repro.tags.tag import Tag
from repro.verify.invariants import STATE as _INV
from repro.verify.invariants import check_inventory as _check_inventory
from repro.verify.invariants import check_slot as _check_slot

__all__ = ["Reader", "InventoryResult", "POLICIES"]

POLICIES = ("paper", "crc_guard", "lost")

#: Int verdict -> SlotType, for the frame-batched path's int arrays.
_SLOT_TYPES = (SlotType.IDLE, SlotType.SINGLE, SlotType.COLLIDED)


@dataclass
class InventoryResult:
    """Outcome of one inventory run."""

    trace: list[SlotRecord]
    stats: InventoryStats
    identified_ids: list[int]
    lost_ids: list[int]

    @property
    def complete(self) -> bool:
        """True iff no tag was lost to a misdetection."""
        return not self.lost_ids


class Reader:
    """An RFID reader executing slotted inventories.

    Parameters
    ----------
    detector:
        The collision-detection scheme.
    timing:
        Airtime model; its ``id_bits`` must match the tag population.
    channel:
        Boolean-sum channel (a fresh noiseless one by default).
    policy:
        Misdetection policy, one of :data:`POLICIES`.
    max_slots:
        Hard safety bound on inventory length (default ``10^7``).

    Each slot ORs the detector's ``packed_bits``-wide integer payloads
    (CRC-CD's 96-bit ``id ⊕ crc(id)`` included).  A frame the protocol
    exports runs batched: the reader superposes, classifies and
    timestamps every slot of the frame with numpy (in a uint64 arena, or
    an object arena for payloads wider than 64 bits) and opens the same
    ``frame`` span and slot events under :mod:`repro.obs` as the per-slot
    loop.  Slots the protocol declines to export (all of BT's and ABS's),
    frames that would cross ``max_slots`` and capturing channels run slot
    by slot.  Invariant checking and observability change neither path.
    """

    def __init__(
        self,
        detector: CollisionDetector,
        timing: TimingModel | None = None,
        channel: Channel | None = None,
        policy: str = "paper",
        max_slots: int = 10_000_000,
    ) -> None:
        if policy not in POLICIES:
            raise ValueError(f"policy must be one of {POLICIES}, got {policy!r}")
        self.detector = detector
        self.timing = timing if timing is not None else TimingModel()
        self.channel = channel if channel is not None else Channel()
        self.policy = policy
        self.max_slots = max_slots
        #: Reusable payload arena for the frame-batched path, grown
        #: geometrically and never shrunk: uint64 when the payloads fit a
        #: machine word, an object array of ints when they are wider.
        self._arena: np.ndarray | None = None
        if policy == "crc_guard" and not self.timing.guard_id_phase:
            raise ValueError(
                "crc_guard policy requires TimingModel(guard_id_phase=True)"
            )

    # ------------------------------------------------------------------

    def run_inventory(
        self,
        tags: Sequence[Tag],
        protocol: AntiCollisionProtocol,
        start_time: float = 0.0,
        select=None,
    ) -> InventoryResult:
        """Identify ``tags`` with ``protocol``; returns the full trace.

        ``select`` is an optional :class:`repro.core.select.SelectMask`
        (or anything with a ``filter(tags)`` method): non-matching tags
        are silenced and take no part in the inventory, like tags that
        failed a Gen2 SELECT.
        """
        if select is not None:
            tags = select.filter(tags)
        return self._run(tags, protocol, start_time, fresh=True)

    def run_inventory_continue(
        self,
        tags: Sequence[Tag],
        protocol: AntiCollisionProtocol,
        start_time: float = 0.0,
    ) -> InventoryResult:
        """Run a *readable* round: the protocol keeps the schedule state it
        learned in a previous round (ABS allocated-slot counters, AQS
        candidate queue).  Only meaningful for protocols whose ``start``
        accepts ``fresh=False``."""
        return self._run(tags, protocol, start_time, fresh=False)

    def _run(
        self,
        tags: Sequence[Tag],
        protocol: AntiCollisionProtocol,
        start_time: float,
        fresh: bool,
    ) -> InventoryResult:
        detector = self.detector
        detector.reset_instrumentation()
        trace: list[SlotRecord] = []
        identified: list[int] = []
        lost: list[int] = []
        time = start_time
        if fresh:
            protocol.start(tags)
        else:
            try:
                protocol.start(tags, fresh=False)
            except TypeError as exc:
                raise ValueError(
                    f"{protocol.name} does not support readable rounds "
                    "(its start() takes no 'fresh' parameter); use "
                    "run_inventory() instead"
                ) from exc
        obs_on = _OBS.enabled
        if obs_on:
            _OBS.tracer.start_span(
                "inventory",
                engine="reader",
                protocol=protocol.name,
                detector=detector.name,
                policy=self.policy,
                n_tags=len(tags),
            )
        # A batched frame draws all its bit errors at once; capture draws
        # interleave with them slot by slot, so capture runs per slot.
        batch_frames = not self.channel.capture_probability
        bits = detector.packed_bits
        current_frame = 0
        index = 0
        try:
            with profile("reader.run_inventory"):
                while not protocol.finished:
                    if batch_frames:
                        partition = protocol.frame_partition()
                        if (
                            partition is not None
                            and index + len(partition) <= self.max_slots
                        ):
                            if obs_on:
                                current_frame = _enter_frame_span(
                                    protocol, current_frame
                                )
                            first = len(trace)
                            time, index = self._run_frame(
                                index, time, protocol, partition, bits,
                                identified, lost, trace,
                            )
                            if obs_on:
                                _inst.record_slots(trace[first:])
                            continue
                    if index >= self.max_slots:
                        raise RuntimeError(
                            f"inventory exceeded max_slots={self.max_slots} "
                            f"({protocol.name} / {detector.name})"
                        )
                    responders = protocol.responders()
                    if obs_on:
                        current_frame = _enter_frame_span(
                            protocol, current_frame
                        )
                    time, record = self._run_slot(
                        index, time, protocol, responders, identified, lost,
                        bits,
                    )
                    trace.append(record)
                    protocol.feedback(
                        record_effective(record, self.policy), responders
                    )
                    index += 1
        finally:
            if obs_on:
                if current_frame:
                    _OBS.tracer.end_span()
                _OBS.tracer.end_span(
                    slots=index, identified=len(identified), airtime=time
                )
        stats = InventoryStats.from_trace(
            trace,
            n_tags=len(tags),
            frames=protocol.frames_started,
            id_bits=self.timing.id_bits,
            tau=self.timing.tau,
        )
        if _INV.enabled:
            # The protocol ran to completion over a fixed population, so
            # every tag must be accounted for (identified or lost).
            _check_inventory(
                trace,
                [t.tag_id for t in tags],
                identified,
                lost,
                complete=True,
            )
        if obs_on:
            _inst.record_inventory("reader", stats.frames, stats.total_time)
        return InventoryResult(
            trace=trace, stats=stats, identified_ids=identified, lost_ids=lost
        )

    # ------------------------------------------------------------------

    def _run_frame(
        self,
        index: int,
        time: float,
        protocol: AntiCollisionProtocol,
        partition: list[Sequence[Tag]],
        bits: int,
        identified: list[int],
        lost: list[int],
        trace: list[SlotRecord],
    ) -> tuple[float, int]:
        """One whole frame through the vectorized fast path.

        Equivalent to ``len(partition)`` iterations of the per-slot loop:
        same RNG draws (each tag's payload is drawn from its private
        stream, and only a tag's own slot consumes it, so drawing the
        frame upfront is stream-identical, and the channel draws the
        frame's bit errors in per-slot order), same verdicts, counters and
        ``SlotRecord`` traces.  End times come from a prefix sum over the
        slot durations, which reproduces the sequential ``time +=
        duration`` left fold bit-exactly.
        """
        detector = self.detector
        frame_size = len(partition)
        frame_no = max(1, protocol.frames_started)
        counts = np.fromiter(
            (len(bucket) for bucket in partition), np.intp, count=frame_size
        )
        total = int(counts.sum())
        arena = self._arena
        if arena is None or len(arena) < total:
            grown = 1024 if arena is None else 2 * len(arena)
            dtype = np.uint64 if bits <= 64 else object
            arena = self._arena = np.empty(max(total, grown), dtype)
        payload = detector.contention_payload_packed
        arena[:total] = [
            payload(tag.tag_id, tag.rng)
            for bucket in partition
            for tag in bucket
        ]
        superposed = self.channel.transmit_packed_many(
            arena[:total], counts, bits
        )
        detected = detector.classify_packed_many(superposed, counts)
        counts_list = counts.tolist()
        detected_list = detected.tolist()
        timing = self.timing
        type_durations = (
            timing.slot_duration(detector, SlotType.IDLE),
            timing.slot_duration(detector, SlotType.SINGLE),
            timing.slot_duration(detector, SlotType.COLLIDED),
        )
        durations = [type_durations[d] for d in detected_list]
        acc = np.empty(frame_size + 1, dtype=np.float64)
        acc[0] = time
        acc[1:] = durations
        end_times = np.add.accumulate(acc)[1:].tolist()

        singles = detected == int(SlotType.SINGLE)
        true_single_slots = np.flatnonzero(singles & (counts == 1))
        missed_slots = np.flatnonzero(singles & (counts > 1))
        gained = np.zeros(frame_size, dtype=np.intp)
        identified_tags: list[int | None] = [None] * frame_size
        lost_counts = [0] * frame_size
        for slot in true_single_slots.tolist():
            tag = partition[slot][0]
            tag.mark_identified(end_times[slot])
            identified.append(tag.tag_id)
            identified_tags[slot] = tag.tag_id
        if len(true_single_slots):
            gained[true_single_slots] = 1
        if self.policy == "lost" and len(missed_slots):
            # The collided tags hear an ACK for the garbled ID and retire
            # believing they were read.
            for slot in missed_slots.tolist():
                bucket = partition[slot]
                for tag in bucket:
                    tag.identified = True
                    tag.lost = True
                    lost.append(tag.tag_id)
                lost_counts[slot] = len(bucket)
                gained[slot] = len(bucket)
        remaining = total - np.cumsum(gained)

        true_types = np.minimum(counts, 2)
        effective = true_types
        false_collisions = (counts == 1) & (
            detected == int(SlotType.COLLIDED)
        )
        if self.policy == "lost" and len(missed_slots):
            effective = true_types.copy()
            effective[missed_slots] = int(SlotType.SINGLE)
        if false_collisions.any():
            # Bit errors (or a custom classifier) can misread a true
            # single; the tag re-contends, exactly as record_effective
            # feeds back.
            if effective is true_types:
                effective = true_types.copy()
            effective[false_collisions] = int(SlotType.COLLIDED)
        protocol.feedback_frame(effective.tolist(), counts_list, remaining)

        true_list = true_types.tolist()
        append = trace.append
        slot_index = index
        for n_resp, true, det, duration, end, ident, lost_n in zip(
            counts_list, true_list, detected_list, durations,
            end_times, identified_tags, lost_counts,
        ):
            append(
                build_record(
                    slot_index, frame_no, n_resp, _SLOT_TYPES[true],
                    _SLOT_TYPES[det], duration, end, ident, lost_n, False,
                )
            )
            slot_index += 1
        if _INV.enabled:
            for record, n_resp, value in zip(
                trace[len(trace) - frame_size:], counts_list,
                superposed.tolist(),
            ):
                _check_slot(
                    record, detector, timing, value if n_resp else None
                )
        return end_times[-1], index + frame_size

    def _run_slot(
        self,
        index: int,
        time: float,
        protocol: AntiCollisionProtocol,
        responders: list[Tag],
        identified: list[int],
        lost: list[int],
        bits: int | None = None,
    ) -> tuple[float, SlotRecord]:
        """One slot; ``bits`` is ``detector.packed_bits``, which a caller
        running many slots reads once and passes in."""
        detector = self.detector
        if bits is None:
            bits = detector.packed_bits
        payload = detector.contention_payload_packed
        value = self.channel.transmit_packed(
            [payload(t.tag_id, t.rng) for t in responders], bits
        )
        outcome = detector.classify_packed(value, len(responders))
        true_type = _true_type(len(responders))
        detected = outcome.slot_type
        duration = self.timing.slot_duration(detector, detected)
        time += duration
        identified_tag: int | None = None
        lost_count = 0
        captured_idx = self.channel.last_capture_index
        captured = (
            captured_idx is not None
            and true_type is SlotType.COLLIDED
            and detected is SlotType.SINGLE
        )
        if captured:
            # The channel resolved the collision to one tag's clean signal;
            # the reader legitimately identifies that tag and the rest
            # re-contend (they never heard their own ACK).
            tag = responders[captured_idx]
            tag.mark_identified(time)
            identified.append(tag.tag_id)
            identified_tag = tag.tag_id
        elif detected is SlotType.SINGLE:
            if true_type is SlotType.SINGLE:
                tag = responders[0]
                tag.mark_identified(time)
                identified.append(tag.tag_id)
                identified_tag = tag.tag_id
            elif self.policy == "lost":
                # The collided tags hear an ACK for the garbled ID and
                # retire believing they were read.
                for tag in responders:
                    tag.identified = True
                    tag.lost = True
                    lost.append(tag.tag_id)
                lost_count = len(responders)
        record = build_record(
            index, max(1, protocol.frames_started), len(responders),
            true_type, detected, duration, time, identified_tag, lost_count,
            captured,
        )
        if _INV.enabled:
            _check_slot(record, detector, self.timing, value)
        if _OBS.enabled:
            _inst.record_slot(record)
        return time, record


def _enter_frame_span(
    protocol: AntiCollisionProtocol, current_frame: int
) -> int:
    """Switch the open ``frame`` span to the protocol's current frame.

    Closes the previous frame's span (if any) and opens the next one
    when the frame number moved; returns the current frame number.
    """
    frame = max(1, protocol.frames_started)
    if frame != current_frame:
        if current_frame:
            _OBS.tracer.end_span()
        _OBS.tracer.start_span("frame", frame=frame)
    return frame


def _true_type(n_responders: int) -> SlotType:
    if n_responders == 0:
        return SlotType.IDLE
    if n_responders == 1:
        return SlotType.SINGLE
    return SlotType.COLLIDED


def record_effective(record: SlotRecord, policy: str) -> SlotType:
    """The slot type the *tags* experience, per the misdetection policy.

    Under ``"paper"`` and ``"crc_guard"`` the process follows ground truth
    (the guard physically restores truth; the paper's accounting assumes
    it); under ``"lost"`` a missed collision reads SINGLE to the tags.
    """
    if record.captured:
        # The captured tag retired (the reader marked it identified); the
        # remaining responders experienced an unresolved collision.
        return SlotType.COLLIDED
    # A noise-induced false collision (true single read as collided) makes
    # the tag re-contend under every policy: the reader never ACKed it.
    if (
        record.true_type is SlotType.SINGLE
        and record.detected_type is SlotType.COLLIDED
    ):
        return SlotType.COLLIDED
    if policy == "lost" and (
        record.true_type is SlotType.COLLIDED
        and record.detected_type is SlotType.SINGLE
    ):
        return SlotType.SINGLE
    return record.true_type
