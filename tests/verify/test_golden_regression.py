"""Golden-file regression: slot-type distributions for frozen seeds.

Pins the exact reader and both fast kernels at one QCD-4 grid point
(n = 30, ℱ = 16, seed 2010).  Any change to the RNG consumption order,
the channel, the detector, or the kernels shifts these counts and fails
the exact-equality comparison against ``tests/data``.

Regenerate after an *intentional* behavior change with::

    PYTHONPATH=src python tests/verify/test_golden_regression.py
"""

from __future__ import annotations

import json
from pathlib import Path

import numpy as np

from repro.bits.rng import make_rng
from repro.core.qcd import QCDDetector
from repro.core.timing import TimingModel
from repro.protocols.bt import BinaryTree
from repro.protocols.dfsa import DynamicFSA
from repro.protocols.fsa import FramedSlottedAloha
from repro.sim.batch import bt_fast_batch, fsa_fast_batch
from repro.sim.reader import Reader
from repro.tags.population import TagPopulation

GOLDEN_PATH = (
    Path(__file__).resolve().parent.parent
    / "data"
    / "golden_slot_distribution.json"
)

N_TAGS = 30
FRAME = 16
SEED = 2010
STRENGTH = 4  # QCD-4: misses are common enough to pin the policy paths


def _counts(stats) -> dict:
    return {
        "true": {
            "idle": stats.true_counts.idle,
            "single": stats.true_counts.single,
            "collided": stats.true_counts.collided,
        },
        "detected": {
            "idle": stats.detected_counts.idle,
            "single": stats.detected_counts.single,
            "collided": stats.detected_counts.collided,
        },
        "total_time": stats.total_time,
        "missed_collisions": stats.missed_collisions,
    }


def _population():
    return TagPopulation(N_TAGS, id_bits=64, rng=make_rng(SEED))


def generate(make_reader) -> dict:
    """Recompute the pinned distributions (the golden file's source).

    ``make_reader(tier, ...)`` builds one Reader tier (see
    ``tier_reader`` in tests/conftest.py).
    """
    timing = TimingModel()
    out = {
        "_config": {
            "n_tags": N_TAGS,
            "frame_size": FRAME,
            "seed": SEED,
            "scheme": f"qcd-{STRENGTH}",
        }
    }

    res = Reader(QCDDetector(STRENGTH), timing).run_inventory(
        _population().tags, FramedSlottedAloha(FRAME)
    )
    out["reader-fsa"] = _counts(res.stats)

    res = Reader(QCDDetector(STRENGTH), timing).run_inventory(
        _population().tags, BinaryTree()
    )
    out["reader-bt"] = _counts(res.stats)

    # Three Reader tiers pinned separately: the frozen object Reader, the
    # live per-slot loop, and the frame-batched path must all land on
    # these exact counts (the tier entries are identical by construction
    # -- the equality itself is part of what the golden file pins).
    for label in ("object", "packed", "batched"):
        res = make_reader(label, QCDDetector(STRENGTH), timing).run_inventory(
            _population().tags, FramedSlottedAloha(FRAME)
        )
        out[f"reader-fsa-{label}"] = _counts(res.stats)
        res = make_reader(label, QCDDetector(STRENGTH), timing).run_inventory(
            _population().tags, DynamicFSA(initial_frame_size=FRAME)
        )
        out[f"reader-dfsa-{label}"] = _counts(res.stats)

    out["fsa-fast"] = _counts(
        fsa_fast_batch(
            N_TAGS,
            FRAME,
            QCDDetector(STRENGTH),
            timing,
            [np.random.default_rng(SEED)],
        ).runs[0]
    )
    out["bt-fast"] = _counts(
        bt_fast_batch(
            N_TAGS, QCDDetector(STRENGTH), timing, [np.random.default_rng(SEED)]
        ).runs[0]
    )
    return out


class TestGoldenDistribution:
    def test_matches_golden_file_exactly(self, tier_reader):
        golden = json.loads(GOLDEN_PATH.read_text())
        assert generate(tier_reader) == golden

    def test_golden_file_is_self_consistent(self):
        """Sanity on the pinned numbers themselves: totals partition and
        every tag won exactly one true single under both backends."""
        golden = json.loads(GOLDEN_PATH.read_text())
        keys = ("reader-fsa", "reader-bt", "fsa-fast", "bt-fast") + tuple(
            f"reader-{proto}-{tier}"
            for proto in ("fsa", "dfsa")
            for tier in ("object", "packed", "batched")
        )
        for key in keys:
            entry = golden[key]
            assert entry["true"]["single"] == N_TAGS
            assert sum(entry["true"].values()) == sum(entry["detected"].values())

    def test_golden_reader_tiers_agree(self):
        """The pinned per-tier entries are mutually identical: the three
        Reader paths may never drift apart, per protocol."""
        golden = json.loads(GOLDEN_PATH.read_text())
        for proto in ("fsa", "dfsa"):
            object_entry = golden[f"reader-{proto}-object"]
            assert golden[f"reader-{proto}-packed"] == object_entry
            assert golden[f"reader-{proto}-batched"] == object_entry


if __name__ == "__main__":
    import sys

    sys.path.insert(0, str(Path(__file__).resolve().parents[1]))
    from conftest import load_reference_reader, tier_reader_factory

    doc = generate(tier_reader_factory(load_reference_reader()))
    GOLDEN_PATH.parent.mkdir(parents=True, exist_ok=True)
    GOLDEN_PATH.write_text(json.dumps(doc, indent=2, sort_keys=True) + "\n")
    print(f"wrote {GOLDEN_PATH}")
