"""The ``repro-bench`` CLI: report schema and the ratio regression gate."""

from __future__ import annotations

import json
from pathlib import Path

import pytest

from repro.experiments.bench import (
    build_parser,
    check_against_baseline,
    check_reader_against_baseline,
    main,
    run_bench,
)

TINY = dict(n_tags=120, frame_size=64, rounds=2, repeats=1, reader_tags=40)
FROZEN_DIR = Path(__file__).resolve().parents[2] / "benchmarks"


@pytest.fixture(scope="module")
def report(reference_reader):
    return run_bench(frozen_reader=reference_reader, **TINY)


class TestRunBench:
    def test_schema(self, report):
        assert set(report) == {"config", "kernels", "reader"}
        assert set(report["kernels"]) == {"fsa", "dfsa", "bt"}
        for entry in report["kernels"].values():
            assert set(entry) == {"batched_ms_per_round"}
            assert entry["batched_ms_per_round"] > 0
        reader = report["reader"]
        assert set(reader) == {
            "object_ms",
            "packed_ms",
            "batched_ms",
            "packed_speedup",
            "batched_speedup",
            "batched_speedup_vs_packed",
        }
        assert reader["packed_speedup"] > 0
        assert reader["batched_speedup"] > 0
        assert report["config"]["frozen_measured"] is False

    def test_object_ratios_need_the_frozen_reader(self):
        reader = run_bench(**TINY)["reader"]
        assert set(reader) == {
            "packed_ms",
            "batched_ms",
            "batched_speedup_vs_packed",
        }

    def test_frozen_engines_measured_when_module_given(self):
        import sys

        sys.path.insert(0, str(FROZEN_DIR))
        try:
            import _reference_kernels as frozen
        finally:
            sys.path.remove(str(FROZEN_DIR))
        rep = run_bench(frozen=frozen, **TINY)
        assert rep["config"]["frozen_measured"] is True
        for entry in rep["kernels"].values():
            assert entry["frozen_ms_per_round"] > 0
            assert entry["batch_speedup_vs_frozen"] > 0


class TestGate:
    def _report(self, fsa_ratio=2.0, reader_ratio=1.3):
        return {
            "kernels": {
                "fsa": {"batch_speedup_vs_frozen": fsa_ratio},
            },
            "reader": {"packed_speedup": reader_ratio},
        }

    def test_passes_against_itself(self):
        report = self._report()
        assert check_against_baseline(report, report, 0.25) == []

    def test_flags_batch_slower_than_frozen(self):
        problems = check_against_baseline(
            self._report(fsa_ratio=0.8), self._report(), 0.25
        )
        assert any("slower than the frozen" in p for p in problems)

    def test_flags_ratio_regression(self):
        problems = check_against_baseline(
            self._report(fsa_ratio=1.2), self._report(fsa_ratio=2.0), 0.25
        )
        assert any("regressed" in p for p in problems)

    def test_tolerates_small_drift(self):
        assert (
            check_against_baseline(
                self._report(fsa_ratio=1.9), self._report(fsa_ratio=2.0), 0.25
            )
            == []
        )

    def test_flags_reader_regression(self):
        problems = check_against_baseline(
            self._report(reader_ratio=0.8),
            self._report(reader_ratio=1.5),
            0.25,
        )
        assert any("reader" in p for p in problems)

    def test_missing_baseline_entries_skip_ratio_checks(self):
        assert (
            check_against_baseline(self._report(), {"kernels": {}}, 0.25)
            == []
        )

    def test_flags_batched_reader_slower_than_object(self):
        report = self._report()
        report["reader"]["batched_speedup"] = 0.9
        problems = check_against_baseline(report, self._report(), 0.25)
        assert any("frame-batched path is slower" in p for p in problems)

    def test_reader_gate_flags_batched_regression(self):
        report = self._report()
        report["reader"]["batched_speedup"] = 1.5
        baseline = {"reader": {"batched_speedup": 2.6}}
        problems = check_reader_against_baseline(report, baseline, 0.25)
        assert any("frame-batched speedup regressed" in p for p in problems)

    def test_reader_gate_passes_against_itself(self):
        report = self._report()
        report["reader"]["batched_speedup"] = 2.6
        assert check_reader_against_baseline(report, report, 0.25) == []

    def test_reader_gate_skips_ratios_missing_on_either_side(self):
        # A pre-frame-batching baseline has no batched_speedup entry;
        # only the per-slot ratio is gated then.
        report = self._report(reader_ratio=1.3)
        report["reader"]["batched_speedup"] = 2.6
        baseline = {"reader": {"packed_speedup": 1.3}}
        assert check_reader_against_baseline(report, baseline, 0.25) == []


class TestCli:
    def test_writes_report(self, tmp_path):
        out = tmp_path / "bench.json"
        rc = main(
            [
                "--quick",
                "--n-tags", "120", "--frame-size", "64",
                "--rounds", "2", "--repeats", "1", "--reader-tags", "40",
                "--out", str(out),
                "--frozen-dir", str(tmp_path / "missing"),
            ]
        )
        assert rc == 0
        doc = json.loads(out.read_text())
        assert doc["config"]["n_tags"] == 120
        assert doc["config"]["frozen_measured"] is False

    def test_gate_failure_exits_nonzero(self, tmp_path):
        out = tmp_path / "bench.json"
        baseline = tmp_path / "baseline.json"
        # An unreachable baseline ratio forces a regression verdict.
        baseline.write_text(
            json.dumps(
                {
                    "kernels": {
                        "fsa": {"batch_speedup_vs_frozen": 1e9},
                    },
                    "reader": {"packed_speedup": 1.0},
                }
            )
        )
        rc = main(
            [
                "--n-tags", "120", "--frame-size", "64",
                "--rounds", "2", "--repeats", "1", "--reader-tags", "40",
                "--out", str(out),
                "--baseline", str(baseline),
                "--frozen-dir", str(FROZEN_DIR),
            ]
        )
        assert rc == 1

    def test_baseline_without_frozen_kernels_is_an_error(
        self, tmp_path, capsys
    ):
        baseline = tmp_path / "baseline.json"
        baseline.write_text(json.dumps({"kernels": {}, "reader": {}}))
        with pytest.raises(SystemExit) as exc:
            main(
                [
                    "--out", str(tmp_path / "bench.json"),
                    "--baseline", str(baseline),
                    "--frozen-dir", str(tmp_path / "missing"),
                ]
            )
        assert exc.value.code == 2
        assert "_reference_kernels.py" in capsys.readouterr().err
        assert not (tmp_path / "bench.json").exists()

    def test_writes_reader_report(self, tmp_path):
        out = tmp_path / "bench.json"
        reader_out = tmp_path / "reader.json"
        rc = main(
            [
                "--n-tags", "120", "--frame-size", "64",
                "--rounds", "2", "--repeats", "1", "--reader-tags", "40",
                "--out", str(out),
                "--reader-out", str(reader_out),
                "--frozen-dir", str(tmp_path / "missing"),
            ]
        )
        assert rc == 0
        doc = json.loads(reader_out.read_text())
        assert set(doc) == {"config", "reader"}
        assert doc["reader"]["batched_ms"] > 0

    def test_reader_baseline_gate_failure_exits_nonzero(self, tmp_path):
        out = tmp_path / "bench.json"
        baseline = tmp_path / "reader_baseline.json"
        baseline.write_text(
            json.dumps({"reader": {"batched_speedup": 1e9}})
        )
        rc = main(
            [
                "--n-tags", "120", "--frame-size", "64",
                "--rounds", "2", "--repeats", "1", "--reader-tags", "40",
                "--out", str(out),
                "--reader-baseline", str(baseline),
                "--frozen-dir", str(FROZEN_DIR),
            ]
        )
        assert rc == 1

    @pytest.mark.parametrize("flag", ["--baseline", "--reader-baseline"])
    def test_baseline_without_frozen_reader_is_an_error(
        self, tmp_path, capsys, flag
    ):
        """The reader ratios are speedups over the frozen object Reader,
        and both baselines gate them; without it there is nothing to
        gate, as for the kernels."""
        frozen_dir = tmp_path / "frozen"
        frozen_dir.mkdir()
        (frozen_dir / "_reference_kernels.py").write_text(
            (FROZEN_DIR / "_reference_kernels.py").read_text()
        )
        baseline = tmp_path / "baseline.json"
        baseline.write_text(json.dumps({"kernels": {}, "reader": {}}))
        with pytest.raises(SystemExit) as exc:
            main(
                [
                    "--out", str(tmp_path / "bench.json"),
                    flag, str(baseline),
                    "--frozen-dir", str(frozen_dir),
                ]
            )
        assert exc.value.code == 2
        assert "_reference_reader.py" in capsys.readouterr().err
        assert not (tmp_path / "bench.json").exists()

    def test_parser_defaults(self):
        args = build_parser().parse_args([])
        assert args.out == "BENCH_kernels.json"
        assert args.tolerance == 0.25
        assert args.reader_out is None
        assert args.reader_baseline is None
        assert not args.quick
