"""Trace/stats export tests."""

from __future__ import annotations

import csv
import json
import math

import pytest

from repro.bits.rng import make_rng
from repro.core.detector import SlotType
from repro.core.qcd import QCDDetector
from repro.protocols.fsa import FramedSlottedAloha
from repro.sim.export import (
    nan_to_none,
    read_trace_csv,
    read_trace_json,
    stats_to_dict,
    trace_to_rows,
    write_stats_json,
    write_trace_csv,
    write_trace_json,
)
from repro.sim.reader import Reader
from repro.sim.trace import SlotRecord
from repro.tags.population import TagPopulation


def run_small(seed=1):
    pop = TagPopulation(10, id_bits=64, rng=make_rng(seed))
    return Reader(QCDDetector(8)).run_inventory(pop.tags, FramedSlottedAloha(8))


class TestRows:
    def test_trace_rows(self):
        result = run_small()
        rows = trace_to_rows(result.trace)
        assert len(rows) == len(result.trace)
        assert rows[0]["true_type"] in ("IDLE", "SINGLE", "COLLIDED")
        assert set(rows[0]) >= {
            "index",
            "frame",
            "duration",
            "end_time",
            "identified_tag",
            "captured",
        }

    def test_stats_dict_roundtrips_json(self):
        result = run_small()
        d = stats_to_dict(result.stats)
        encoded = json.dumps(d)
        decoded = json.loads(encoded)
        assert decoded["single"] == 10
        assert decoded["throughput"] == result.stats.throughput

    def test_stats_dict_is_loss_free(self):
        d = stats_to_dict(run_small().stats)
        assert d["utilization_rate"] == d["utilization"]
        assert "lost_tags" in d and "captures" in d


class TestFiles:
    def test_write_csv(self, tmp_path):
        result = run_small()
        path = write_trace_csv(result.trace, tmp_path / "trace.csv")
        with path.open() as fh:
            rows = list(csv.DictReader(fh))
        assert len(rows) == len(result.trace)
        assert rows[0]["true_type"] in ("IDLE", "SINGLE", "COLLIDED")

    def test_write_csv_empty_trace(self, tmp_path):
        path = write_trace_csv([], tmp_path / "empty.csv")
        with path.open() as fh:
            reader = csv.reader(fh)
            header = next(reader)
        assert "true_type" in header

    def test_write_json_empty_trace(self, tmp_path):
        path = write_trace_json([], tmp_path / "empty.json")
        assert json.loads(path.read_text()) == []

    def test_write_json_single_and_list(self, tmp_path):
        result = run_small()
        p1 = write_stats_json(result.stats, tmp_path / "one.json")
        assert json.loads(p1.read_text())["single"] == 10
        p2 = write_stats_json(
            [result.stats, result.stats], tmp_path / "two.json"
        )
        assert len(json.loads(p2.read_text())) == 2


class TestRoundTrip:
    """trace -> file -> parsed rows must equal trace_to_rows exactly."""

    def test_csv_roundtrip(self, tmp_path):
        result = run_small()
        path = write_trace_csv(result.trace, tmp_path / "trace.csv")
        assert read_trace_csv(path) == trace_to_rows(result.trace)

    def test_json_roundtrip(self, tmp_path):
        result = run_small()
        path = write_trace_json(result.trace, tmp_path / "trace.json")
        assert read_trace_json(path) == trace_to_rows(result.trace)

    def test_csv_roundtrip_lost_policy(self, tmp_path):
        """Covers lost_tags > 0 and identified_tag=None columns."""
        pop = TagPopulation(40, id_bits=64, rng=make_rng(5))
        result = Reader(QCDDetector(2), policy="lost").run_inventory(
            pop.tags, FramedSlottedAloha(8)
        )
        path = write_trace_csv(result.trace, tmp_path / "trace.csv")
        assert read_trace_csv(path) == trace_to_rows(result.trace)

    def test_csv_roundtrip_empty(self, tmp_path):
        path = write_trace_csv([], tmp_path / "empty.csv")
        assert read_trace_csv(path) == []


def _nan_record() -> SlotRecord:
    return SlotRecord(
        index=0,
        frame=1,
        n_responders=0,
        true_type=SlotType.IDLE,
        detected_type=SlotType.IDLE,
        duration=math.nan,
        end_time=math.nan,
        identified_tag=None,
        lost_tags=0,
        captured=False,
    )


class TestStrictJson:
    """Writers must emit RFC 8259 JSON: no bare ``NaN`` literals."""

    def test_nan_to_none_helper(self):
        doc = {"a": math.nan, "b": [1.0, math.nan], "c": {"d": math.nan}}
        assert nan_to_none(doc) == {"a": None, "b": [1.0, None], "c": {"d": None}}
        assert nan_to_none(2.5) == 2.5
        assert nan_to_none("NaN") == "NaN"

    def test_trace_json_has_no_nan_literal(self, tmp_path):
        path = write_trace_json([_nan_record()], tmp_path / "t.json")
        text = path.read_text()
        # Strict parse: parse_constant fires on NaN/Infinity literals.
        rows = json.loads(text, parse_constant=pytest.fail)
        assert rows[0]["duration"] is None

    def test_trace_json_roundtrip_restores_nan(self, tmp_path):
        trace = [_nan_record()]
        path = write_trace_json(trace, tmp_path / "t.json")
        (row,) = read_trace_json(path)
        want = trace_to_rows(trace)[0]
        assert math.isnan(row.pop("duration"))
        assert math.isnan(row.pop("end_time"))
        want.pop("duration"), want.pop("end_time")
        assert row == want  # every non-NaN field is loss-free

    def test_identified_tag_none_is_not_coerced(self, tmp_path):
        path = write_trace_json([_nan_record()], tmp_path / "t.json")
        (row,) = read_trace_json(path)
        assert row["identified_tag"] is None

    def test_stats_json_nan_delay_is_null(self, tmp_path):
        import numpy as np

        from repro.core.timing import TimingModel
        from repro.sim.batch import fsa_fast_batch

        # A 0-tag inventory identifies nothing, so its delay stats are NaN.
        stats = fsa_fast_batch(
            0,
            8,
            QCDDetector(8),
            TimingModel(),
            [np.random.Generator(np.random.PCG64(1))],
        ).runs[0]
        path = write_stats_json(stats, tmp_path / "s.json")
        doc = json.loads(path.read_text(), parse_constant=pytest.fail)
        assert doc["delay_mean"] is None
        assert doc["delay_std"] is None
        assert doc["idle"] == 8

    def test_stats_json_normal_run_still_strict(self, tmp_path):
        result = run_small()
        path = write_stats_json(result.stats, tmp_path / "s.json")
        doc = json.loads(path.read_text(), parse_constant=pytest.fail)
        assert doc["single"] == 10
