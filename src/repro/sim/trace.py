"""Per-slot trace records.

Every slot of an inventory produces one :class:`SlotRecord` holding both
the ground truth (how many tags actually transmitted) and the detector's
verdict, plus the airtime accounting.  All metrics in
:mod:`repro.sim.metrics` are pure functions of the trace, so any run can be
re-analyzed without re-simulation.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.core.detector import SlotType

__all__ = ["SlotRecord"]


@dataclass(frozen=True)
class SlotRecord:
    """One slot of an inventory.

    Attributes
    ----------
    index:
        0-based slot index within the inventory.
    frame:
        1-based frame number (FSA family) or 1 for tree protocols' single
        logical frame.
    n_responders:
        Ground-truth number of transmitting tags.
    true_type / detected_type:
        Ground truth vs. the detector's verdict.
    duration:
        Airtime charged to this slot (detected-type based; see
        :class:`repro.core.timing.TimingModel`).
    end_time:
        Simulation time when the slot (including any ID phase) completed.
    identified_tag:
        ID of the tag identified in this slot, or ``None``.
    lost_tags:
        Number of tags that retired unidentified in this slot (``"lost"``
        misdetection policy only).
    captured:
        True when the channel's capture effect resolved a physically
        collided slot into one tag's clean signal; the single verdict is
        then *legitimate*, not a detector miss.
    """

    index: int
    frame: int
    n_responders: int
    true_type: SlotType
    detected_type: SlotType
    duration: float
    end_time: float
    identified_tag: int | None = None
    lost_tags: int = 0
    captured: bool = False

    @property
    def misdetected(self) -> bool:
        return self.true_type != self.detected_type and not self.captured


_new_record = SlotRecord.__new__


def build_record(
    index: int,
    frame: int,
    n_responders: int,
    true_type: SlotType,
    detected_type: SlotType,
    duration: float,
    end_time: float,
    identified_tag: int | None,
    lost_tags: int,
    captured: bool,
) -> SlotRecord:
    """A :class:`SlotRecord` equal to ``SlotRecord(...)`` field for field.

    The frozen dataclass ``__init__`` sets each field through
    ``object.__setattr__`` (2.9 µs a record); filling ``__dict__`` on a
    bare instance gives the same equality, ``asdict`` and ``repr`` at
    about a quarter of that, and the Reader builds one per slot.
    """
    record = _new_record(SlotRecord)
    record.__dict__.update(
        index=index,
        frame=frame,
        n_responders=n_responders,
        true_type=true_type,
        detected_type=detected_type,
        duration=duration,
        end_time=end_time,
        identified_tag=identified_tag,
        lost_tags=lost_tags,
        captured=captured,
    )
    return record
