"""Per-slot trace records, kept as columns.

Every slot of an inventory has one row holding both the ground truth (how
many tags actually transmitted) and the detector's verdict, plus the
airtime accounting.  :class:`SlotTrace` stores an inventory's rows as one
typed column per :class:`SlotRecord` field and builds a record only when
one is read.  All metrics in :mod:`repro.sim.metrics` are pure functions
of the trace, so any run can be re-analyzed without re-simulation.
"""

from __future__ import annotations

from array import array
from bisect import bisect_left
from collections.abc import Sequence
from dataclasses import dataclass, fields

import numpy as np

from repro.core.detector import SlotType

__all__ = ["SlotRecord", "SlotTrace", "COLUMNS"]


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


#: :class:`SlotRecord` field order (the columns of an exported trace).
COLUMNS: tuple[str, ...] = tuple(f.name for f in fields(SlotRecord))

#: The numeric columns of a :class:`SlotTrace` and their element types.
#: Slot types are stored as their int codes, ``captured`` as 0/1.
_NUMERIC = {
    "index": np.dtype(np.int64),
    "frame": np.dtype(np.int64),
    "n_responders": np.dtype(np.int64),
    "true_type": np.dtype(np.int8),
    "detected_type": np.dtype(np.int8),
    "duration": np.dtype(np.float64),
    "end_time": np.dtype(np.float64),
    "lost_tags": np.dtype(np.int64),
    "captured": np.dtype(np.int8),
}

_SLOT_TYPES = tuple(SlotType)


class SlotTrace(Sequence):
    """An inventory's slots, one typed column per :class:`SlotRecord` field.

    The Reader appends a batched frame's arrays with :meth:`append_frame`
    and a single slot's scalars with :meth:`append`; nothing builds a
    :class:`SlotRecord` until a caller reads one.  ``trace[i]`` (negative
    indices included), slices, iteration and ``==`` against a list of
    records all yield records equal field for field to the ones the
    per-slot loop used to build, so a ``SlotTrace`` stands in for a
    ``list[SlotRecord]`` wherever one is read.

    The columns are public attributes, for consumers that aggregate
    without building records (:meth:`InventoryStats.from_trace
    <repro.sim.metrics.InventoryStats.from_trace>`, the exporters, the
    obs counters, the gateway's reports).  Each numeric field is an
    :class:`array.array` named after it: ``true_type`` and
    ``detected_type`` hold :class:`~repro.core.detector.SlotType` codes
    and ``captured`` holds 0/1.  The ``identified_tag`` field is stored
    sparsely, as the ascending positions of the rows that identified a
    tag (``identified_rows``) and those tags' IDs in the same order
    (``identified_tags``, a list: IDs may be wider than 64 bits).  Treat
    the columns as read-only: rows are only ever appended.
    """

    __slots__ = (*_NUMERIC, "identified_rows", "identified_tags")

    def __init__(self) -> None:
        for name, dtype in _NUMERIC.items():
            setattr(self, name, array(dtype.char))
        self.identified_rows = array(_NUMERIC["index"].char)
        self.identified_tags: list[int] = []

    @classmethod
    def from_records(cls, records) -> "SlotTrace":
        """The trace of an iterable of :class:`SlotRecord`; a
        ``SlotTrace`` is returned unchanged."""
        if isinstance(records, SlotTrace):
            return records
        trace = cls()
        for r in records:
            trace.append(
                r.index, r.frame, r.n_responders, r.true_type,
                r.detected_type, r.duration, r.end_time, r.identified_tag,
                r.lost_tags, r.captured,
            )
        return trace

    def append(
        self,
        index: int,
        frame: int,
        n_responders: int,
        true_type: int,
        detected_type: int,
        duration: float,
        end_time: float,
        identified_tag: int | None,
        lost_tags: int,
        captured: bool,
    ) -> None:
        """Append one slot's row."""
        if identified_tag is not None:
            self.identified_rows.append(len(self.index))
            self.identified_tags.append(identified_tag)
        self.index.append(index)
        self.frame.append(frame)
        self.n_responders.append(n_responders)
        self.true_type.append(true_type)
        self.detected_type.append(detected_type)
        self.duration.append(duration)
        self.end_time.append(end_time)
        self.lost_tags.append(lost_tags)
        self.captured.append(captured)

    def append_frame(
        self,
        start: int,
        frame: int,
        n_responders,
        true_type,
        detected_type,
        duration,
        end_time,
        lost_tags,
        identified_rows,
        identified_tags: list[int],
    ) -> None:
        """Append slots ``start, start + 1, ...`` of one batched frame.

        ``n_responders`` through ``lost_tags`` have one entry per slot
        (numpy arrays or sequences).  ``identified_rows`` are the
        ascending positions, within the frame, of the slots that
        identified a tag and ``identified_tags`` those tags' IDs.  No
        slot of a batched frame is captured: capturing channels run slot
        by slot.
        """
        n = len(n_responders)
        first = len(self.index)
        self.index.frombytes(np.arange(start, start + n).tobytes())
        self.frame.extend(array(self.frame.typecode, (frame,)) * n)
        for name, values in (
            ("n_responders", n_responders),
            ("true_type", true_type),
            ("detected_type", detected_type),
            ("duration", duration),
            ("end_time", end_time),
            ("lost_tags", lost_tags),
        ):
            getattr(self, name).frombytes(
                np.asarray(values, _NUMERIC[name]).tobytes()
            )
        self.captured.frombytes(bytes(n))
        self.identified_rows.frombytes(
            (np.asarray(identified_rows, np.int64) + first).tobytes()
        )
        self.identified_tags.extend(identified_tags)

    def identified_column(self) -> list[int | None]:
        """The dense ``identified_tag`` column: one entry per row."""
        tags: list[int | None] = [None] * len(self.index)
        for row, tag in zip(self.identified_rows, self.identified_tags):
            tags[row] = tag
        return tags

    def _record(self, i: int, tag: int | None) -> SlotRecord:
        return SlotRecord(
            self.index[i],
            self.frame[i],
            self.n_responders[i],
            _SLOT_TYPES[self.true_type[i]],
            _SLOT_TYPES[self.detected_type[i]],
            self.duration[i],
            self.end_time[i],
            tag,
            self.lost_tags[i],
            bool(self.captured[i]),
        )

    def __len__(self) -> int:
        return len(self.index)

    def __getitem__(self, i):
        if isinstance(i, slice):
            tags = self.identified_column()
            return [
                self._record(j, tags[j]) for j in range(*i.indices(len(self)))
            ]
        n = len(self.index)
        if i < 0:
            i += n
        if not 0 <= i < n:
            raise IndexError("SlotTrace index out of range")
        rows = self.identified_rows
        j = bisect_left(rows, i)
        identified = j < len(rows) and rows[j] == i
        return self._record(i, self.identified_tags[j] if identified else None)

    def __iter__(self):
        return map(self._record, range(len(self)), self.identified_column())

    def __eq__(self, other) -> bool:
        if isinstance(other, SlotTrace):
            return all(
                getattr(self, name) == getattr(other, name)
                for name in self.__slots__
            )
        if isinstance(other, list):
            return len(self) == len(other) and all(
                a == b for a, b in zip(self, other)
            )
        return NotImplemented

    def __repr__(self) -> str:
        return f"SlotTrace({list(self)!r})"
