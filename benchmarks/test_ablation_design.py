"""Ablations of the design choices DESIGN.md calls out.

1. Strength sweep beyond the paper's {4, 8, 16}: where does the
   accuracy/overhead trade-off put the knee?  (Backs the l = 8
   recommendation.)
2. Misdetection policies: what does the ``crc_guard`` insurance cost, and
   what does ``lost`` actually lose?
3. FSA termination policies: the price of the confirmation frame.
4. Variable-length slots vs the preamble alone: how much of QCD's win is
   the short idle/collided slots vs the cheap check.
"""

from __future__ import annotations

import numpy as np
import pytest

from bench_util import show
from repro.bits.rng import make_rng
from repro.core.crc_cd import CRCCDDetector
from repro.core.qcd import QCDDetector
from repro.core.timing import TimingModel
from repro.protocols.fsa import FramedSlottedAloha
from repro.sim.batch import fsa_fast_batch
from repro.sim.reader import Reader
from repro.tags.population import TagPopulation

N, F = 500, 300


def _rngs(seed, rounds):
    return [np.random.default_rng(seed + r) for r in range(rounds)]


def kernel(strength, seed=0, rounds=10):
    det = QCDDetector(strength)
    return list(
        fsa_fast_batch(N, F, det, TimingModel(), _rngs(seed, rounds)).runs
    )


@pytest.mark.benchmark(group="ablation")
def test_strength_knee(benchmark):
    """Sweep l = 1..16: accuracy saturates around l = 8 while time keeps
    growing linearly in l -- the paper's recommendation is the knee."""

    def sweep():
        rows = []
        for l in (1, 2, 4, 6, 8, 12, 16):
            runs = kernel(l)
            acc = sum(s.accuracy for s in runs) / len(runs)
            t = sum(s.total_time for s in runs) / len(runs)
            rows.append({"l": l, "accuracy": acc, "time": t})
        return rows

    rows = benchmark.pedantic(sweep, rounds=1, iterations=1)
    show(
        "Ablation: strength sweep (case II)",
        [
            {
                "strength": str(r["l"]),
                "accuracy": f"{r['accuracy']:.4f}",
                "time (µs)": f"{r['time']:,.0f}",
            }
            for r in rows
        ],
    )
    by_l = {r["l"]: r for r in rows}
    assert by_l[8]["accuracy"] > 0.995
    assert by_l[8]["accuracy"] - by_l[4]["accuracy"] > 0.02
    assert by_l[16]["accuracy"] - by_l[8]["accuracy"] < 0.01  # saturated
    assert by_l[16]["time"] > by_l[8]["time"] > by_l[4]["time"]


@pytest.mark.benchmark(group="ablation")
def test_policy_cost(benchmark):
    """crc_guard insures against misses for ~l_crc extra bits per single
    slot; lost completes fastest but silently drops tags."""

    def run_policy(policy, strength=2):
        timing = TimingModel(guard_id_phase=(policy == "crc_guard"))
        pop = TagPopulation(200, rng=make_rng(42))
        reader = Reader(QCDDetector(strength), timing, policy=policy)
        result = reader.run_inventory(pop.tags, FramedSlottedAloha(120))
        return result

    def sweep():
        return {p: run_policy(p) for p in ("paper", "crc_guard", "lost")}

    results = benchmark.pedantic(sweep, rounds=1, iterations=1)
    rows = [
        {
            "policy": p,
            "identified": str(len(r.identified_ids)),
            "lost": str(len(r.lost_ids)),
            "time (µs)": f"{r.stats.total_time:,.0f}",
        }
        for p, r in results.items()
    ]
    show("Ablation: misdetection policies (l=2, 200 tags)", rows)
    assert results["lost"].lost_ids  # l=2 misses often
    assert not results["paper"].lost_ids
    assert not results["crc_guard"].lost_ids
    # The guard costs airtime per single slot.
    assert (
        results["crc_guard"].stats.total_time
        > results["paper"].stats.total_time
    )


@pytest.mark.benchmark(group="ablation")
def test_termination_policies(benchmark):
    """The confirmation frame costs exactly ℱ idle slots over 'frame';
    'immediate' (oracle) is the cheapest."""

    def run_term(termination):
        pop = TagPopulation(N, rng=make_rng(7))
        reader = Reader(QCDDetector(8), TimingModel())
        return reader.run_inventory(
            pop.tags, FramedSlottedAloha(F, termination=termination)
        )

    def sweep():
        return {t: run_term(t) for t in ("confirm", "frame", "immediate")}

    results = benchmark.pedantic(sweep, rounds=1, iterations=1)
    slots = {t: len(r.trace) for t, r in results.items()}
    show(
        "Ablation: FSA termination policies",
        [
            {"policy": t, "slots": str(s), "time (µs)": f"{results[t].stats.total_time:,.0f}"}
            for t, s in slots.items()
        ],
    )
    assert slots["confirm"] == slots["frame"] + F
    assert slots["immediate"] <= slots["frame"]


@pytest.mark.benchmark(group="ablation")
def test_variable_slot_contribution(benchmark):
    """Decompose QCD's win: a hypothetical 'QCD-preamble + fixed 96-bit
    slots' scheme saves nothing, showing the variable-length slot
    mechanism -- not the cheap check -- carries the airtime gain."""

    def compute():
        runs_qcd = kernel(8, seed=100)
        det_crc = CRCCDDetector(id_bits=64)
        runs_crc = fsa_fast_batch(
            N, F, det_crc, TimingModel(), _rngs(100, 10)
        ).runs
        t_qcd = sum(s.total_time for s in runs_qcd) / len(runs_qcd)
        t_crc = sum(s.total_time for s in runs_crc) / len(runs_crc)
        counts = runs_qcd[0].true_counts
        # Fixed-slot QCD: every slot costs l_prm + l_id like a worst case.
        t_fixed = (counts.total) * (16 + 64)
        return t_qcd, t_crc, t_fixed

    t_qcd, t_crc, t_fixed = benchmark.pedantic(compute, rounds=1, iterations=1)
    show(
        "Ablation: where QCD's gain comes from",
        [
            {"scheme": "CRC-CD (96-bit slots)", "time (µs)": f"{t_crc:,.0f}"},
            {"scheme": "QCD, fixed-length slots", "time (µs)": f"{t_fixed:,.0f}"},
            {"scheme": "QCD, variable-length slots", "time (µs)": f"{t_qcd:,.0f}"},
        ],
    )
    assert t_qcd < t_fixed < t_crc
