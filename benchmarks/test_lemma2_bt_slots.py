"""Lemma 2 -- BT resolves n tags in 2.885n slots on average
(1.443n collided + 0.442n idle + n singles), throughput 0.35.

Checks the exact recursion, the asymptotic constants, and the simulation
against each other.
"""

from __future__ import annotations

import numpy as np
import pytest

from bench_util import show
from repro.analysis.bt_theory import (
    bt_average_throughput,
    expected_bt_collided,
    expected_bt_idle,
    expected_bt_slots,
)
from repro.core.ideal import IdealDetector
from repro.core.timing import TimingModel
from repro.sim.batch import bt_fast_batch


def test_lemma2_recursion_vs_simulation(benchmark):
    n = 200

    def run():
        sims = bt_fast_batch(
            n,
            IdealDetector(64),
            TimingModel(),
            [np.random.default_rng(s) for s in range(25)],
        ).runs
        return {
            "total": sum(s.true_counts.total for s in sims) / len(sims),
            "collided": sum(s.true_counts.collided for s in sims) / len(sims),
            "idle": sum(s.true_counts.idle for s in sims) / len(sims),
        }

    sim = benchmark.pedantic(run, rounds=1, iterations=1)
    rows = [
        {
            "quantity": "total slots",
            "simulated": f"{sim['total']:.1f}",
            "recursion": f"{expected_bt_slots(n):.1f}",
            "Lemma 2": f"{2.885 * n:.1f}",
        },
        {
            "quantity": "collided",
            "simulated": f"{sim['collided']:.1f}",
            "recursion": f"{expected_bt_collided(n):.1f}",
            "Lemma 2": f"{1.443 * n:.1f}",
        },
        {
            "quantity": "idle",
            "simulated": f"{sim['idle']:.1f}",
            "recursion": f"{expected_bt_idle(n):.1f}",
            "Lemma 2": f"{0.442 * n:.1f}",
        },
    ]
    show(f"Lemma 2: BT slot counts at n={n}", rows)
    assert sim["total"] == pytest.approx(expected_bt_slots(n), rel=0.05)
    assert sim["collided"] == pytest.approx(expected_bt_collided(n), rel=0.06)
    assert sim["idle"] == pytest.approx(expected_bt_idle(n), rel=0.10)


def test_lemma2_throughput(benchmark):
    thr = benchmark.pedantic(
        lambda: bt_average_throughput(300), rounds=1, iterations=1
    )
    assert thr == pytest.approx(0.35, abs=0.01)


def test_lemma2_constants_asymptotic(benchmark):
    n = 400
    vals = benchmark.pedantic(
        lambda: (
            expected_bt_slots(n) / n,
            expected_bt_collided(n) / n,
            expected_bt_idle(n) / n,
        ),
        rounds=1,
        iterations=1,
    )
    assert vals[0] == pytest.approx(2.885, abs=0.02)
    assert vals[1] == pytest.approx(1.443, abs=0.01)
    assert vals[2] == pytest.approx(0.442, abs=0.01)
