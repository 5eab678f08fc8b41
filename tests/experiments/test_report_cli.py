"""Report rendering and CLI tests."""

from __future__ import annotations

import json

import pytest

from repro.experiments.cli import EXPERIMENTS, main, run_experiment
from repro.experiments.report import render_table
from repro.experiments.runner import ExperimentSuite


class TestRenderTable:
    def test_basic(self):
        rows = [{"a": "1", "b": "xx"}, {"a": "22", "b": "y"}]
        out = render_table(rows, title="T")
        lines = out.splitlines()
        assert lines[0] == "T"
        assert "a " in lines[1] and "b" in lines[1]
        assert len(lines) == 5

    def test_alignment(self):
        rows = [{"col": "short"}, {"col": "a-much-longer-cell"}]
        out = render_table(rows)
        widths = {len(line) for line in out.splitlines()}
        assert len(widths) == 1  # all lines padded to equal width

    def test_missing_cells(self):
        rows = [{"a": "1"}, {"b": "2"}]
        out = render_table(rows)
        assert "a" in out and "b" in out

    def test_empty(self):
        assert "(no rows)" in render_table([], title="X")
        assert render_table([]) == "(no rows)"


class TestCli:
    def test_experiment_registry_complete(self):
        assert set(EXPERIMENTS) == {
            "table2",
            "table3",
            "table4",
            "table7",
            "table8",
            "table9",
            "fig5",
            "fig6",
            "fig7",
            "fig8",
        }

    def test_extension_registry_complete(self):
        from repro.experiments.cli import EXTENSIONS

        assert set(EXTENSIONS) == {
            "gen2",
            "energy",
            "estimators",
            "noise",
            "neighbor",
            "coverage",
            "missing",
        }

    def test_extension_via_cli(self, capsys):
        assert main(["energy", "--rounds", "1"]) == 0
        out = capsys.readouterr().out
        assert "energy budget" in out
        assert "QCD-8" in out

    def test_run_experiment_theory(self):
        suite = ExperimentSuite(rounds=1, seed=0)
        rows = run_experiment("table2", suite)
        assert len(rows) == 3

    def test_main_theory_table(self, capsys):
        assert main(["table2", "--rounds", "1"]) == 0
        out = capsys.readouterr().out
        assert "Table II" in out
        assert "0.6698" in out

    def test_main_simulation_table_small(self, capsys):
        assert main(["table7", "--rounds", "2", "--seed", "5"]) == 0
        out = capsys.readouterr().out
        assert "Table VII" in out

    def test_main_rejects_unknown(self):
        with pytest.raises(SystemExit):
            main(["table99"])

    def test_workers_and_cache_flags(self, tmp_path, capsys):
        cache = tmp_path / "mc-cache"
        argv = [
            "table7", "--rounds", "1", "--seed", "5",
            "--workers", "2", "--cache-dir", str(cache),
        ]
        assert main(argv) == 0
        first = capsys.readouterr().out
        assert "Table VII" in first
        assert list(cache.glob("*.json"))  # grid points persisted
        # Warm cache (and serial this time): identical output.
        warm_argv = [
            "table7", "--rounds", "1", "--seed", "5",
            "--cache-dir", str(cache),
        ]
        assert main(warm_argv) == 0
        assert capsys.readouterr().out == first
        # --no-cache recomputes but must land on the same numbers.
        assert main(warm_argv + ["--no-cache"]) == 0
        assert capsys.readouterr().out == first


class TestObsCli:
    def test_obs_report_self_check_passes(self, capsys):
        assert main(["obs-report", "--seed", "3"]) == 0
        out = capsys.readouterr().out
        assert "Observability self-check" in out
        assert "repro_slots_total" in out
        assert " NO" not in out

    def test_metrics_out_matches_recomputation(self, tmp_path, capsys):
        import numpy as np

        from repro.bits.rng import make_rng
        from repro.core.qcd import QCDDetector
        from repro.protocols.fsa import FramedSlottedAloha
        from repro.sim.batch import fsa_fast_batch
        from repro.sim.metrics import slot_counts
        from repro.sim.reader import Reader
        from repro.tags.population import TagPopulation

        path = tmp_path / "metrics.json"
        argv = ["obs-report", "--seed", "3", "--metrics-out", str(path)]
        assert main(argv) == 0
        capsys.readouterr()
        doc = json.loads(path.read_text())
        prom = path.with_suffix(".prom").read_text()
        assert "# TYPE repro_slots_total counter" in prom

        got: dict[str, int] = {}
        for sample in doc["repro_slots_total"]["samples"]:
            key = sample["labels"]["true_type"]
            got[key] = got.get(key, 0) + int(sample["value"])

        # Recompute the same seeded runs without obs and compare.
        suite = ExperimentSuite(seed=3)
        pop = TagPopulation(100, id_bits=64, rng=make_rng(3))
        reader = Reader(QCDDetector(8), suite.timing)
        result = reader.run_inventory(pop.tags, FramedSlottedAloha(64))
        kernel = fsa_fast_batch(
            1000,
            600,
            QCDDetector(8),
            suite.timing,
            [np.random.Generator(np.random.PCG64(3))],
        ).runs[0]
        exact = slot_counts(result.trace)
        want = {
            "IDLE": exact.idle + kernel.true_counts.idle,
            "SINGLE": exact.single + kernel.true_counts.single,
            "COLLIDED": exact.collided + kernel.true_counts.collided,
        }
        assert got == {k: v for k, v in want.items() if v}

    def test_trace_out_writes_jsonl(self, tmp_path, capsys):
        path = tmp_path / "trace.jsonl"
        argv = [
            "table7", "--rounds", "1", "--seed", "5",
            "--trace-out", str(path),
        ]
        assert main(argv) == 0
        capsys.readouterr()
        records = [
            json.loads(line) for line in path.read_text().splitlines()
        ]
        assert records
        assert {r["name"] for r in records} == {"grid_point"}
        assert all(r["type"] == "span" for r in records)
