#!/usr/bin/env python3
"""The strength trade-off: picking l (paper Sections IV-B, VI-B, VI-C).

A small l makes preambles cheap but lets same-draw collisions slip
through; a large l is near-exact but wastes airtime.  This example sweeps
l, reporting detection accuracy, utilization rate, total airtime, and
what misses actually *cost* under the three misdetection policies --
backing the paper's "adopt l = 8" recommendation with numbers.

Run:  python examples/strength_tradeoff.py [n_tags]
"""

from __future__ import annotations

import sys

import numpy as np

from repro import FramedSlottedAloha, QCDDetector, Reader, TagPopulation
from repro.analysis.accuracy import expected_accuracy_fsa, required_strength
from repro.bits.rng import make_rng
from repro.core.timing import TimingModel
from repro.experiments.report import render_table
from repro.sim.batch import fsa_fast_batch


def sweep_strengths(n_tags: int, frame: int, rounds: int = 20):
    rows = []
    for strength in (1, 2, 4, 8, 12, 16):
        det = QCDDetector(strength)
        timing = TimingModel()
        rngs = [np.random.default_rng(s) for s in range(rounds)]
        stats = fsa_fast_batch(n_tags, frame, det, timing, rngs).runs
        acc = sum(s.accuracy for s in stats) / rounds
        ur = sum(s.utilization for s in stats) / rounds
        t = sum(s.total_time for s in stats) / rounds
        rows.append(
            {
                "strength": f"{strength}-bit",
                "accuracy (sim)": f"{acc:.4f}",
                "accuracy (model)": f"{expected_accuracy_fsa(n_tags, frame, strength):.4f}",
                "UR": f"{ur:.1%}",
                "airtime (µs)": f"{t:,.0f}",
            }
        )
    return rows


def lost_tags_at_low_strength(n_tags: int, frame: int) -> dict[int, int]:
    """Under the 'lost' policy, how many tags vanish per strength?"""
    out = {}
    for strength in (1, 2, 4, 8):
        lost = 0
        for seed in range(5):
            pop = TagPopulation(n_tags, id_bits=64, rng=make_rng(seed))
            reader = Reader(QCDDetector(strength), TimingModel(), policy="lost")
            res = reader.run_inventory(pop.tags, FramedSlottedAloha(frame))
            lost += len(res.lost_ids)
        out[strength] = lost
    return out


def main() -> int:
    n_tags = int(sys.argv[1]) if len(sys.argv) > 1 else 500
    frame = max(1, (n_tags * 3) // 5)

    print(f"QCD strength sweep: {n_tags} tags, frame {frame}\n")
    print(render_table(sweep_strengths(n_tags, frame), title="Accuracy vs overhead"))

    print("\nTags silently lost if the reader trusts a missed collision "
          "('lost' policy, 5 seeds pooled):")
    lost = lost_tags_at_low_strength(min(n_tags, 200), min(frame, 120))
    print(render_table(
        [{"strength": f"{k}-bit", "lost tags": str(v)} for k, v in lost.items()]
    ))

    l99 = required_strength(0.99, n_tags, frame)
    l9999 = required_strength(0.9999, n_tags, frame)
    print(f"\nSmallest strength for 99% expected accuracy:    l = {l99}")
    print(f"Smallest strength for 99.99% expected accuracy: l = {l9999}")
    print("The paper recommends l = 8: ~100% accuracy while keeping the "
          "preamble at 16 bits (1/6 of a CRC-CD slot).")
    return 0


if __name__ == "__main__":
    sys.exit(main())
