"""Ablation -- does QCD's win survive realistic Gen2 link timing?

The paper charges airtime as τ per bit with no framing.  This bench
re-runs the core comparison under :class:`Gen2TimingModel` (Tari, BLF,
turnarounds, idle timeouts) and sweeps the assumptions that matter:

* with the paper's "commands are the same in both schemes" assumption
  (one-phase singles also pay a closing ACK) QCD keeps a clear win;
* drop that assumption and the forward-link ACK of QCD's second phase
  eats most of the preamble savings -- the practical caveat a bit-count
  model cannot show;
* idle slots end at the T3 timeout, so the *time-optimal* frame under
  QCD/Gen2 sits above Lemma 1's ℱ = n.
"""

from __future__ import annotations

import numpy as np
import pytest

from bench_util import show
from repro.analysis.ei import measured_ei
from repro.analysis.optimal_frame import SlotCosts, optimal_frame_size
from repro.core.crc_cd import CRCCDDetector
from repro.core.gen2_timing import Gen2TimingModel
from repro.core.qcd import QCDDetector
from repro.core.timing import TimingModel
from repro.sim.batch import fsa_fast_batch

N, F = 500, 300


def mean_time(detector, timing, rounds=10, seed=0):
    rngs = [np.random.default_rng(seed + r) for r in range(rounds)]
    runs = fsa_fast_batch(N, F, detector, timing, rngs).runs
    return sum(s.total_time for s in runs) / rounds


@pytest.mark.benchmark(group="gen2")
def test_gen2_ei_with_paper_assumption(benchmark):
    def compute():
        g2 = Gen2TimingModel()  # ack_one_phase=True (paper's assumption)
        t_crc = mean_time(CRCCDDetector(id_bits=64), g2)
        t_qcd = mean_time(QCDDetector(8), g2)
        paper_model = TimingModel()
        t_crc_p = mean_time(CRCCDDetector(id_bits=64), paper_model)
        t_qcd_p = mean_time(QCDDetector(8), paper_model)
        return (
            measured_ei(t_crc, t_qcd),
            measured_ei(t_crc_p, t_qcd_p),
            t_crc,
            t_qcd,
        )

    ei_gen2, ei_paper, t_crc, t_qcd = benchmark.pedantic(
        compute, rounds=1, iterations=1
    )
    show(
        "Gen2 timing: EI of QCD-8 over CRC-CD (case II)",
        [
            {"model": "paper (τ per bit)", "EI": f"{ei_paper:.3f}"},
            {
                "model": "Gen2 link timing",
                "EI": f"{ei_gen2:.3f}",
                "CRC-CD (µs)": f"{t_crc:,.0f}",
                "QCD (µs)": f"{t_qcd:,.0f}",
            },
        ],
    )
    # The win survives but is heavily attenuated (~0.69 -> ~0.18):
    # turnarounds and reader commands dominate short slots.
    assert ei_gen2 > 0.10
    assert ei_gen2 < ei_paper


@pytest.mark.benchmark(group="gen2")
def test_gen2_ack_assumption_sensitivity(benchmark):
    def compute():
        with_ack = Gen2TimingModel(ack_one_phase=True)
        without = Gen2TimingModel(ack_one_phase=False)
        out = {}
        for name, timing in (("same-commands", with_ack), ("no baseline ACK", without)):
            t_crc = mean_time(CRCCDDetector(id_bits=64), timing, seed=40)
            t_qcd = mean_time(QCDDetector(8), timing, seed=40)
            out[name] = measured_ei(t_crc, t_qcd)
        return out

    eis = benchmark.pedantic(compute, rounds=1, iterations=1)
    show(
        "Gen2 timing: sensitivity to the closing-ACK assumption",
        [{"assumption": k, "EI": f"{v:.3f}"} for k, v in eis.items()],
    )
    assert eis["same-commands"] > eis["no baseline ACK"]
    # Without the assumption the advantage (nearly) vanishes at this
    # operating point -- the honest caveat.
    assert eis["no baseline ACK"] < 0.15


@pytest.mark.benchmark(group="gen2")
def test_gen2_time_optimal_frame_above_n(benchmark):
    def compute():
        g2 = Gen2TimingModel()
        rows = []
        for n in (50, 100, 200):
            costs = SlotCosts.from_timing(QCDDetector(8), g2)
            f_opt = optimal_frame_size(n, costs)
            rows.append({"n": n, "f_opt": f_opt})
        return rows

    rows = benchmark.pedantic(compute, rounds=1, iterations=1)
    show(
        "Gen2 timing: time-optimal QCD frame size vs Lemma 1's ℱ = n",
        [
            {"n": str(r["n"]), "time-optimal ℱ": str(r["f_opt"]), "Lemma 1": str(r["n"])}
            for r in rows
        ],
    )
    for r in rows:
        assert r["f_opt"] > r["n"]  # cheap idles shift the optimum up
