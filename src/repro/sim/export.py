"""Trace and stats export utilities.

Downstream analysis (plotting, regression dashboards) wants flat records,
not object graphs.  This module converts traces and
:class:`~repro.sim.metrics.InventoryStats` into plain dicts and writes
CSV/JSON without any third-party dependency.  The readers
(:func:`read_trace_csv` / :func:`read_trace_json`) invert the writers
loss-free: parsed rows compare equal to :func:`trace_to_rows` of the
original trace (asserted by ``tests/sim/test_export.py``).
"""

from __future__ import annotations

import csv
import json
import math
from pathlib import Path
from typing import Iterable, Sequence

from repro.core.detector import SlotType
from repro.sim.metrics import InventoryStats
from repro.sim.trace import COLUMNS, SlotRecord, SlotTrace

__all__ = [
    "nan_to_none",
    "trace_to_rows",
    "stats_to_dict",
    "write_trace_csv",
    "write_trace_json",
    "read_trace_csv",
    "read_trace_json",
    "write_stats_json",
]


def nan_to_none(obj: object) -> object:
    """Recursively replace float NaN with ``None`` for strict JSON.

    RFC 8259 has no ``NaN`` literal, and Python's default
    ``json.dumps(..., allow_nan=True)`` emits one anyway -- output that
    ``jq``, ``JSON.parse`` and ``json.loads`` in strict mode all reject.
    Every JSON writer in this repo runs its payload through this helper
    and serializes with ``allow_nan=False``; readers that know a field is
    a float coerce ``None`` back to NaN.
    """
    if isinstance(obj, float) and math.isnan(obj):
        return None
    if isinstance(obj, dict):
        return {key: nan_to_none(value) for key, value in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [nan_to_none(value) for value in obj]
    return obj

#: Column order of a flattened slot record (also the header of an empty
#: CSV, so downstream parsers always see the schema).
TRACE_FIELDS: tuple[str, ...] = COLUMNS

_INT_FIELDS = ("index", "frame", "n_responders", "lost_tags")
_FLOAT_FIELDS = ("duration", "end_time")


def trace_to_rows(trace: Sequence[SlotRecord]) -> list[dict[str, object]]:
    """Flatten slot records; enum fields become their names."""
    trace = SlotTrace.from_records(trace)
    name = [kind.name for kind in SlotType].__getitem__
    return [
        dict(zip(TRACE_FIELDS, row))
        for row in zip(
            trace.index,
            trace.frame,
            trace.n_responders,
            map(name, trace.true_type),
            map(name, trace.detected_type),
            trace.duration,
            trace.end_time,
            trace.identified_column(),
            trace.lost_tags,
            map(bool, trace.captured),
        )
    ]


def stats_to_dict(stats: InventoryStats) -> dict[str, object]:
    """Flatten an InventoryStats into JSON-ready primitives.

    Loss-free over the paper's reported quantities: both the legacy
    ``utilization`` key and its spelled-out alias ``utilization_rate``
    are emitted, plus ``lost_tags`` and ``captures``.
    """
    return {
        "n_tags": stats.n_tags,
        "frames": stats.frames,
        "idle": stats.true_counts.idle,
        "single": stats.true_counts.single,
        "collided": stats.true_counts.collided,
        "detected_idle": stats.detected_counts.idle,
        "detected_single": stats.detected_counts.single,
        "detected_collided": stats.detected_counts.collided,
        "throughput": stats.throughput,
        "total_time": stats.total_time,
        "accuracy": stats.accuracy,
        "delay_mean": stats.delay.mean,
        "delay_std": stats.delay.std,
        "delay_median": stats.delay.median,
        "utilization": stats.utilization,
        "utilization_rate": stats.utilization,
        "missed_collisions": stats.missed_collisions,
        "false_collisions": stats.false_collisions,
        "lost_tags": stats.lost_tags,
        "captures": stats.captures,
    }


def write_trace_csv(trace: Sequence[SlotRecord], path: str | Path) -> Path:
    """Write one CSV row per slot; returns the path written.

    An empty trace still produces the full header row, so consumers can
    rely on the schema being present.
    """
    path = Path(path)
    rows = trace_to_rows(trace)
    fields = list(rows[0]) if rows else list(TRACE_FIELDS)
    with path.open("w", newline="") as fh:
        writer = csv.DictWriter(fh, fieldnames=fields)
        writer.writeheader()
        writer.writerows(rows)
    return path


def write_trace_json(trace: Sequence[SlotRecord], path: str | Path) -> Path:
    """Write the flattened trace as one RFC-8259-clean JSON array.

    NaN floats (``duration`` / ``end_time``) become ``null``;
    :func:`read_trace_json` restores them.
    """
    path = Path(path)
    path.write_text(
        json.dumps(
            nan_to_none(trace_to_rows(trace)), indent=2, allow_nan=False
        )
    )
    return path


def _coerce_row(row: dict[str, object]) -> dict[str, object]:
    """CSV gives back strings; restore the types ``trace_to_rows`` emits."""
    out: dict[str, object] = dict(row)
    for key in _INT_FIELDS:
        out[key] = int(out[key])  # type: ignore[arg-type]
    for key in _FLOAT_FIELDS:
        out[key] = float(out[key])  # type: ignore[arg-type]
    identified = out["identified_tag"]
    out["identified_tag"] = (
        None if identified in ("", None) else int(identified)  # type: ignore[arg-type]
    )
    out["captured"] = out["captured"] in (True, "True", "true", "1")
    return out


def read_trace_csv(path: str | Path) -> list[dict[str, object]]:
    """Parse a trace CSV back into typed rows (= ``trace_to_rows`` output)."""
    with Path(path).open(newline="") as fh:
        return [_coerce_row(row) for row in csv.DictReader(fh)]


def read_trace_json(path: str | Path) -> list[dict[str, object]]:
    """Parse a trace JSON file back into rows (= ``trace_to_rows`` output).

    ``null`` in a float column is the writer's encoding of NaN and is
    coerced back; ``identified_tag`` keeps ``None`` as ``None``.
    """
    rows = json.loads(Path(path).read_text())
    for row in rows:
        for key in _FLOAT_FIELDS:
            if row.get(key) is None:
                row[key] = math.nan
    return rows


def write_stats_json(
    stats: InventoryStats | Iterable[InventoryStats], path: str | Path
) -> Path:
    """Write one stats dict (or a list of them) as JSON."""
    path = Path(path)
    if isinstance(stats, InventoryStats):
        payload: object = stats_to_dict(stats)
    else:
        payload = [stats_to_dict(s) for s in stats]
    path.write_text(
        json.dumps(nan_to_none(payload), indent=2, allow_nan=False)
    )
    return path
