"""Extension bench -- cardinality estimation under QCD probing.

Estimating *how many* tags are present (paper refs [14]-[16]) transfers
no IDs, so every probing slot is an overhead slot -- the slots QCD
shrinks 6x.  This bench measures estimate quality and airtime for both
framings, and the accuracy/airtime frontier as probing frames accumulate.
"""

from __future__ import annotations

import numpy as np
import pytest

from bench_util import show
from repro.analysis.cardinality import estimate_cardinality
from repro.core.crc_cd import CRCCDDetector
from repro.core.qcd import QCDDetector
from repro.core.timing import TimingModel

N_TRUE = 800
FRAME = 512


@pytest.mark.benchmark(group="cardinality")
def test_estimation_airtime_comparison(benchmark):
    def compute():
        out = {}
        for name, det in (
            ("CRC-CD", CRCCDDetector(id_bits=64)),
            ("QCD-8", QCDDetector(8)),
        ):
            est = estimate_cardinality(
                N_TRUE, FRAME, 20, det, TimingModel(), np.random.default_rng(3)
            )
            out[name] = est
        return out

    results = benchmark.pedantic(compute, rounds=1, iterations=1)
    rows = [
        {
            "framing": name,
            "estimate": f"{e.n_hat:,.0f} (true {N_TRUE})",
            "±95%": f"{e.relative_error_bound:.1%}",
            "airtime (µs)": f"{e.airtime:,.0f}",
        }
        for name, e in results.items()
    ]
    show("Cardinality estimation, 20 probing frames", rows)
    crc, qcd = results["CRC-CD"], results["QCD-8"]
    assert qcd.n_hat == crc.n_hat  # same statistics
    assert crc.airtime / qcd.airtime == pytest.approx(6.0, rel=0.01)
    assert qcd.n_hat == pytest.approx(N_TRUE, rel=0.1)


@pytest.mark.benchmark(group="cardinality")
def test_estimation_cheaper_than_identification(benchmark):
    """Counting should cost a small fraction of reading: compare probing
    airtime for a ±5% estimate with the full QCD inventory time."""
    from repro.sim.batch import fsa_fast_batch

    def compute():
        det = QCDDetector(8)
        timing = TimingModel()
        frames = 1
        est = estimate_cardinality(
            N_TRUE, FRAME, frames, det, timing, np.random.default_rng(7)
        )
        while est.relative_error_bound > 0.05 and frames < 200:
            frames += 1
            est = estimate_cardinality(
                N_TRUE, FRAME, frames, det, timing, np.random.default_rng(7)
            )
        inv = fsa_fast_batch(
            N_TRUE,
            int(N_TRUE * 0.6),
            det,
            timing,
            [np.random.default_rng(8)],
        ).runs[0]
        return est, inv

    est, inv = benchmark.pedantic(compute, rounds=1, iterations=1)
    show(
        "Counting vs reading (QCD-8)",
        [
            {
                "task": f"±5% estimate ({est.frames} frames)",
                "airtime (µs)": f"{est.airtime:,.0f}",
            },
            {
                "task": "full identification",
                "airtime (µs)": f"{inv.total_time:,.0f}",
            },
        ],
    )
    assert est.airtime < 0.5 * inv.total_time
