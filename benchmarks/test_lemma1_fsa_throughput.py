"""Lemma 1 -- FSA throughput peaks at 1/e ≈ 0.37 when ℱ = n.

Sweeps the frame size around the optimum and verifies both the location
and the height of the peak against simulation.
"""

from __future__ import annotations

import math

import numpy as np
import pytest

from bench_util import show
from repro.analysis.fsa_theory import expected_throughput, max_throughput
from repro.core.ideal import IdealDetector
from repro.core.timing import TimingModel
from repro.sim.batch import fsa_fast_batch


def first_frame_throughput(n, frame, seeds=range(12)):
    """Simulated single-slot fraction of the first frame."""
    vals = []
    for s in seeds:
        rng = np.random.default_rng(1000 + s)
        occ = np.bincount(rng.integers(0, frame, n), minlength=frame)
        vals.append(float((occ == 1).sum()) / frame)
    return sum(vals) / len(vals)


def test_lemma1_peak_location(benchmark):
    n = 400
    ratios = [0.25, 0.5, 1.0, 2.0, 4.0]

    def sweep():
        return {r: first_frame_throughput(n, int(n * r)) for r in ratios}

    curve = benchmark.pedantic(sweep, rounds=1, iterations=1)
    rows = [
        {
            "F/n": f"{r}",
            "throughput (sim)": f"{curve[r]:.4f}",
            "throughput (theory)": f"{expected_throughput(n, int(n * r)):.4f}",
        }
        for r in ratios
    ]
    show("Lemma 1: FSA throughput vs frame size", rows)
    assert max(curve, key=curve.get) == 1.0  # peak at F = n


def test_lemma1_peak_height(benchmark):
    thr = benchmark.pedantic(
        lambda: first_frame_throughput(1000, 1000, seeds=range(20)),
        rounds=1,
        iterations=1,
    )
    assert thr == pytest.approx(1 / math.e, abs=0.02)
    assert max_throughput() == pytest.approx(0.37, abs=0.005)


def test_lemma1_full_inventory_bound(benchmark):
    """No fixed-frame full inventory beats 1/e throughput."""

    def run():
        out = []
        for frame in (200, 400, 800):
            (stats,) = fsa_fast_batch(
                400,
                frame,
                IdealDetector(64),
                TimingModel(),
                [np.random.default_rng(7)],
                confirm_frame=False,
            ).runs
            out.append(stats.true_counts.throughput)
        return out

    thrs = benchmark.pedantic(run, rounds=1, iterations=1)
    assert all(t <= 1 / math.e + 0.02 for t in thrs)
