"""Frozen per-slot object Reader (differential test oracle).

This is the exact ``Reader``'s object tier as it stood before the Reader
ran every inventory on packed ints: each slot composes per-tag
:class:`~repro.bits.bitvec.BitVector` payloads, superposes them with
:func:`transmit` (the object channel, ``Channel.transmit`` and
``Channel._corrupt`` of that version, acting on a live
:class:`~repro.bits.channel.Channel`'s configuration, RNG and statistics)
and classifies them with ``detector.classify``, telling an
:class:`~repro.core.ideal.IdealDetector` the true transmitter count
first.  It opens the same ``inventory``/``frame`` spans and records the
same slot events as the live Reader.

``tests/sim/test_reader_reference.py`` holds the live
:class:`repro.sim.reader.Reader` to it field by field, and ``repro-bench``
times it as the ``object_ms`` denominator of the reader speedup ratios
(loaded from ``--frozen-dir``).  It is not part of the library and must
not be imported from ``src/``.  Only the invariant hook changed: it hands
``check_slot`` the signal as a packed int, the form that function takes.
"""

from __future__ import annotations

from typing import Sequence

from repro.bits.bitvec import BitVector
from repro.bits.channel import Channel
from repro.core.detector import CollisionDetector, SlotType
from repro.core.ideal import IdealDetector
from repro.core.timing import TimingModel
from repro.obs import instruments as _inst
from repro.obs.profiling import profile
from repro.obs.state import STATE as _OBS
from repro.protocols.base import AntiCollisionProtocol
from repro.sim.metrics import InventoryStats
from repro.sim.reader import POLICIES, InventoryResult
from repro.sim.trace import SlotRecord
from repro.tags.tag import Tag
from repro.verify.invariants import STATE as _INV
from repro.verify.invariants import check_inventory as _check_inventory
from repro.verify.invariants import check_slot as _check_slot

__all__ = ["Reader", "transmit"]


def transmit(channel: Channel, signals: Sequence[BitVector]) -> BitVector | None:
    """Superpose the signals of one slot on ``channel``.

    Returns ``None`` for an idle slot (no transmitters).  All signals
    must have equal length.  Check ``channel.last_capture_index`` after
    the call to learn whether (and whose) capture occurred.
    """
    channel.stats.slots += 1
    channel.last_capture_index = None
    if not signals:
        return None
    channel.stats.transmissions += len(signals)
    channel.stats.bits_on_air += sum(s.length for s in signals)
    if len(signals) >= 2 and channel.capture_probability > 0.0:
        p = channel.capture_probability * channel.capture_falloff ** (
            len(signals) - 2
        )
        assert channel.rng is not None
        if float(channel.rng.random()) < p:
            idx = int(channel.rng.integers(0, len(signals)))
            channel.last_capture_index = idx
            channel.stats.captures += 1
            received = signals[idx]
            if channel.bit_error_rate > 0.0:
                received = _corrupt(channel, received)
            return received
    received = BitVector.superpose(signals)
    if channel.bit_error_rate > 0.0:
        received = _corrupt(channel, received)
    return received


def _corrupt(channel: Channel, signal: BitVector) -> BitVector:
    assert channel.rng is not None
    flips = channel.rng.random(signal.length) < channel.bit_error_rate
    if not flips.any():
        return signal
    mask = BitVector.from_bits(int(f) for f in flips)
    channel.stats.flipped_bits += int(flips.sum())
    return signal ^ mask


class Reader:
    """The per-slot object Reader; same constructor as the live one."""

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
        if policy == "crc_guard" and not self.timing.guard_id_phase:
            raise ValueError(
                "crc_guard policy requires TimingModel(guard_id_phase=True)"
            )

    def run_inventory(
        self,
        tags: Sequence[Tag],
        protocol: AntiCollisionProtocol,
        start_time: float = 0.0,
        select=None,
    ) -> InventoryResult:
        if select is not None:
            tags = select.filter(tags)
        return self._run(tags, protocol, start_time, fresh=True)

    def run_inventory_continue(
        self,
        tags: Sequence[Tag],
        protocol: AntiCollisionProtocol,
        start_time: float = 0.0,
    ) -> InventoryResult:
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
        current_frame = 0
        index = 0
        try:
            with profile("reader.run_inventory"):
                while not protocol.finished:
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
                        index, time, protocol, responders, identified, lost
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

    def _run_slot(
        self,
        index: int,
        time: float,
        protocol: AntiCollisionProtocol,
        responders: list[Tag],
        identified: list[int],
        lost: list[int],
    ) -> tuple[float, SlotRecord]:
        detector = self.detector
        payloads = [
            detector.contention_payload(t.tag_id, t.rng) for t in responders
        ]
        signal = transmit(self.channel, payloads)
        if isinstance(detector, IdealDetector):
            sole = responders[0].tag_id if len(responders) == 1 else None
            detector.observe_transmitters(len(responders), sole)
        outcome = detector.classify(signal)
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
                for tag in responders:
                    tag.identified = True
                    tag.lost = True
                    lost.append(tag.tag_id)
                lost_count = len(responders)
        record = SlotRecord(
            index=index,
            frame=max(1, protocol.frames_started),
            n_responders=len(responders),
            true_type=true_type,
            detected_type=detected,
            duration=duration,
            end_time=time,
            identified_tag=identified_tag,
            lost_tags=lost_count,
            captured=captured,
        )
        if _INV.enabled:
            _check_slot(
                record, detector, self.timing,
                None if signal is None else signal.to_int(),
            )
        if _OBS.enabled:
            _inst.record_slot(record)
        return time, record


def _enter_frame_span(
    protocol: AntiCollisionProtocol, current_frame: int
) -> int:
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
    if record.captured:
        return SlotType.COLLIDED
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
