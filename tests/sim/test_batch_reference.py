"""The Monte-Carlo kernels against a frozen copy of themselves.

``benchmarks/_reference_batch.py`` keeps ``repro.sim.batch`` as it was
before three rewrites of the work that follows the draws: the BT slot
order rebuilt from collided indices, the FSA/DFSA identification delays
computed from per-frame counts instead of a cumulative sum over every
occupied slot, and the miss probabilities gathered from small memoized
tables instead of a full table built per call.  Both consume every
round's stream identically, so every field of every round must match
bit for bit (``stats_equal``), delay statistics included -- which the
golden pins do not cover for BT.

With non-integer timing the partial sums are no longer exact in
float64, so the two orders of summation agree to normal float rounding
instead (the contract the ``repro.sim.batch`` docstring states).
"""

from __future__ import annotations

import dataclasses
import math

import numpy as np
import pytest

from repro.bits import BitVector
from repro.core.crc_cd import CRCCDDetector
from repro.core.detector import CollisionDetector, SlotOutcome, SlotType
from repro.core.ideal import IdealDetector
from repro.core.qcd import QCDDetector
from repro.core.timing import TimingModel
from repro.protocols.estimators import LowerBoundEstimator, SchouteEstimator
from repro.sim import batch as live
from repro.sim.batch import stats_equal

from tests.conftest import REFERENCE_BATCH, load_module

frozen = load_module(REFERENCE_BATCH)


class HalvingDetector(CollisionDetector):
    """A detector the kernels have no closed form for: its miss
    probabilities come from ``miss_probability`` one collision at a
    time (the closure path)."""

    needs_id_phase = True
    name = "halving"

    @property
    def contention_bits(self) -> int:
        return 9

    def contention_payload(self, tag_id, rng):
        return BitVector(int(rng.integers(1, 1 << 9)), 9)

    def classify(self, signal):
        return SlotOutcome(SlotType.IDLE)

    def miss_probability(self, m: int) -> float:
        return 0.5 ** (m - 1)


DETECTORS = {
    "qcd-1": lambda: QCDDetector(1),
    "qcd-4": lambda: QCDDetector(4),
    "qcd-8": lambda: QCDDetector(8),
    "qcd-16": lambda: QCDDetector(16),
    "crc": lambda: CRCCDDetector(id_bits=64),
    "ideal": lambda: IdealDetector(64),
    "closure": HalvingDetector,
}


def _frame(n: int) -> int:
    """The paper's frame size ratio (30 slots per 50 tags), at least 4."""
    return max(4, 3 * n // 5)


#: name -> kernel call on module ``k``.
KERNELS = {
    "fsa": lambda k, n, det, t, s: k.fsa_fast_batch(n, _frame(n), det, t, s),
    "fsa-frame": lambda k, n, det, t, s: k.fsa_fast_batch(
        n, _frame(n), det, t, s, confirm_frame=False
    ),
    "dfsa-schoute": lambda k, n, det, t, s: k.dfsa_fast_batch(
        n, 16, SchouteEstimator(), det, t, s
    ),
    "dfsa-lower-bound": lambda k, n, det, t, s: k.dfsa_fast_batch(
        n, 16, LowerBoundEstimator(), det, t, s
    ),
    "bt": lambda k, n, det, t, s: k.bt_fast_batch(n, det, t, s),
    "bt-counts": lambda k, n, det, t, s: k.bt_fast_batch(
        n, det, t, s, collect_delays=False
    ),
}

PAPER_TIMING = TimingModel()


def _streams(salt: int, rounds: int):
    return np.random.SeedSequence([24_2010, salt]).spawn(rounds)


def _both(kernel: str, n: int, scheme: str, timing, rounds: int, salt: int):
    det_live, det_frozen = DETECTORS[scheme](), DETECTORS[scheme]()
    streams = _streams(salt, rounds)
    got = KERNELS[kernel](live, n, det_live, timing, streams).runs
    want = KERNELS[kernel](frozen, n, det_frozen, timing, streams).runs
    assert len(got) == len(want) == rounds
    return got, want


@pytest.mark.parametrize("n", [0, 1, 2, 50, 500, 5000])
@pytest.mark.parametrize("scheme", sorted(DETECTORS))
@pytest.mark.parametrize("kernel", sorted(KERNELS))
def test_matches_frozen_kernels(kernel, scheme, n):
    rounds = 2 if n >= 5000 else 4
    got, want = _both(kernel, n, scheme, PAPER_TIMING, rounds, salt=n)
    for i, (a, b) in enumerate(zip(got, want)):
        assert stats_equal(a, b), f"round {i}"


@pytest.mark.slow
@pytest.mark.parametrize("kernel", ["fsa", "dfsa-schoute", "bt"])
def test_matches_frozen_kernels_case_iv(kernel):
    """One 50 000-tag round per protocol, at QCD-4 (many missed
    collisions, so the miss bookkeeping runs on every frame)."""
    got, want = _both(kernel, 50_000, "qcd-4", PAPER_TIMING, 1, salt=4)
    assert stats_equal(got[0], want[0])


def _close(x, y, rel: float) -> bool:
    if isinstance(x, dict):
        return x.keys() == y.keys() and all(
            _close(x[k], y[k], rel) for k in x
        )
    if isinstance(x, float):
        return (math.isnan(x) and math.isnan(y)) or math.isclose(
            x, y, rel_tol=rel
        )
    return x == y


@pytest.mark.parametrize("kernel", sorted(KERNELS))
def test_non_integer_tau_agrees_to_float_rounding(kernel):
    """At tau = 0.3 the partial sums round, so the summation order shows
    in the last bits; every count stays exact."""
    got, want = _both(kernel, 5000, "qcd-4", TimingModel(tau=0.3), 3, 7)
    for a, b in zip(got, want):
        assert _close(dataclasses.asdict(a), dataclasses.asdict(b), 1e-12)
