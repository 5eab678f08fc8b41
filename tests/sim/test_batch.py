"""Bit-exactness of the Monte-Carlo kernels.

The FSA/DFSA kernels consume each round's stream exactly like the frozen
pre-batching per-round ("streamed") kernels in
``benchmarks/_reference_kernels.py``, so those comparisons are *exact*
(``stats_equal``, every field of every round), not distributional: a
single differing bit anywhere in the delay statistics, slot counts, or
airtime fails.  The frozen BT walker used an older depth-first draw
order, so the BT kernel is compared against a streamed loop of
one-round calls instead and stays anchored by the golden pins below and,
delay statistics included, by ``tests/sim/test_batch_reference.py``.

A golden pin keeps the kernels anchored to the committed
slot-distribution file; regenerate the batched entries after an
*intentional* behavior change with::

    PYTHONPATH=src python tests/sim/test_batch.py
"""

from __future__ import annotations

import dataclasses
import importlib.util
import json
from pathlib import Path

import numpy as np
import pytest

from repro.bits.crc import CRC16_GEN2
from repro.core.crc_cd import CRCCDDetector
from repro.core.ideal import IdealDetector
from repro.core.qcd import QCDDetector
from repro.core.timing import TimingModel
from repro.experiments.config import SimulationCase
from repro.experiments.parallel import GridPointJob, run_rounds
from repro.experiments.runner import AggregateStats
from repro.protocols.estimators import LowerBoundEstimator, SchouteEstimator
from repro.sim.batch import (
    BatchResult,
    _miss_eval,
    _miss_key,
    _miss_prob_fn,
    _miss_table,
    _split_lefts,
    bt_fast_batch,
    dfsa_fast_batch,
    fsa_fast_batch,
    stats_equal,
)
from repro.sim.metrics import DelayStats

ROUNDS = 8
N, F = 97, 48

REPO = Path(__file__).resolve().parents[2]
GOLDEN_PATH = REPO / "tests" / "data" / "golden_batch_kernels.json"


def _load_frozen():
    path = REPO / "benchmarks" / "_reference_kernels.py"
    spec = importlib.util.spec_from_file_location("_reference_kernels", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


frozen = _load_frozen()


DETECTOR_FACTORIES = {
    "qcd-8": lambda: QCDDetector(8),
    "qcd-2": lambda: QCDDetector(2),
    "crc": lambda: CRCCDDetector(id_bits=64),
    "ideal": lambda: IdealDetector(64),
}


def children(salt: int, rounds: int = ROUNDS):
    return np.random.SeedSequence([4242, salt]).spawn(rounds)


def gen(child) -> np.random.Generator:
    return np.random.Generator(np.random.PCG64(child))


def assert_runs_equal(batch: BatchResult, streamed) -> None:
    assert len(batch.runs) == len(streamed)
    for a, b in zip(batch.runs, streamed):
        assert stats_equal(a, b)


def bt_one_per_call(n, det, timing, kids):
    """The streamed BT loop: one kernel call per round."""
    return [bt_fast_batch(n, det, timing, [c]).runs[0] for c in kids]


class TestEquivalence:
    @pytest.mark.parametrize("scheme", sorted(DETECTOR_FACTORIES))
    def test_fsa_matches_streamed(self, scheme, timing):
        det = DETECTOR_FACTORIES[scheme]()
        kids = children(1)
        batch = fsa_fast_batch(N, F, det, timing, kids)
        streamed = [frozen.fsa_fast(N, F, det, timing, gen(c)) for c in kids]
        assert_runs_equal(batch, streamed)

    @pytest.mark.parametrize("scheme", sorted(DETECTOR_FACTORIES))
    def test_bt_matches_streamed(self, scheme, timing):
        det = DETECTOR_FACTORIES[scheme]()
        kids = children(2)
        batch = bt_fast_batch(N, det, timing, kids)
        assert_runs_equal(batch, bt_one_per_call(N, det, timing, kids))

    @pytest.mark.parametrize(
        "estimator_factory", [SchouteEstimator, LowerBoundEstimator]
    )
    def test_dfsa_matches_streamed(self, estimator_factory, timing):
        det = QCDDetector(8)
        kids = children(3)
        batch = dfsa_fast_batch(
            N, 16, estimator_factory(), det, timing, kids
        )
        streamed = [
            frozen.dfsa_fast(N, 16, estimator_factory(), det, timing, gen(c))
            for c in kids
        ]
        assert_runs_equal(batch, streamed)

    def test_fsa_without_delays_or_confirm_frame(self, timing):
        det = QCDDetector(4)
        kids = children(4)
        batch = fsa_fast_batch(
            N, F, det, timing, kids, collect_delays=False, confirm_frame=False
        )
        streamed = [
            frozen.fsa_fast(
                N,
                F,
                det,
                timing,
                gen(c),
                collect_delays=False,
                confirm_frame=False,
            )
            for c in kids
        ]
        assert_runs_equal(batch, streamed)

    def test_bt_without_delays(self, timing):
        """Skipping the slot-order reconstruction changes only the delay
        statistics: counts and the closed-form airtime are unchanged."""
        det = QCDDetector(4)
        kids = children(5)
        bare = bt_fast_batch(N, det, timing, kids, collect_delays=False)
        full = bt_fast_batch(N, det, timing, kids)
        for a, b in zip(bare.runs, full.runs):
            assert a.delay.count == 0
            assert stats_equal(a, dataclasses.replace(b, delay=a.delay))

    @pytest.mark.parametrize("n", [0, 1, 2])
    def test_degenerate_populations(self, n, timing):
        det = QCDDetector(8)
        kids = children(6, rounds=3)
        for confirm in (True, False):
            assert_runs_equal(
                fsa_fast_batch(
                    n, 4, det, timing, kids, confirm_frame=confirm
                ),
                [
                    frozen.fsa_fast(
                        n, 4, det, timing, gen(c), confirm_frame=confirm
                    )
                    for c in kids
                ],
            )
        assert_runs_equal(
            bt_fast_batch(n, det, timing, kids),
            bt_one_per_call(n, det, timing, kids),
        )

    def test_one_slot_frame_gives_up(self, timing):
        """Two tags always collide in a one-slot frame, so the inventory
        can never end; the kernel must raise instead of spinning."""
        with pytest.raises(RuntimeError, match="fsa_fast_batch exceeded"):
            fsa_fast_batch(2, 1, QCDDetector(8), timing, children(16, 1))

    def test_accepts_ready_generators(self, timing):
        """Already-built generators pass through ``_generators``."""
        det = QCDDetector(8)
        kids = children(7)
        a = fsa_fast_batch(N, F, det, timing, kids)
        b = fsa_fast_batch(N, F, det, timing, [gen(c) for c in kids])
        assert_runs_equal(a, b.runs)


class TestSharding:
    @pytest.mark.parametrize("cuts", [(1,), (3,), (1, 4), (2, 5, 7)])
    def test_shard_split_invariance(self, cuts, timing):
        """Concatenating per-shard batches reproduces the whole batch:
        the executors may split the round streams anywhere."""
        det = QCDDetector(8)
        kids = children(8)
        whole = fsa_fast_batch(N, F, det, timing, kids).runs
        bounds = [0, *cuts, ROUNDS]
        parts = []
        for lo, hi in zip(bounds, bounds[1:]):
            parts.extend(
                fsa_fast_batch(N, F, det, timing, kids[lo:hi]).runs
            )
        assert all(stats_equal(a, b) for a, b in zip(whole, parts))

    def test_bt_shard_split_invariance(self, timing):
        det = QCDDetector(8)
        kids = children(9)
        whole = bt_fast_batch(N, det, timing, kids).runs
        parts = [
            s
            for lo, hi in ((0, 3), (3, ROUNDS))
            for s in bt_fast_batch(N, det, timing, kids[lo:hi]).runs
        ]
        assert all(stats_equal(a, b) for a, b in zip(whole, parts))


class TestDispatch:
    @pytest.mark.parametrize("protocol", ["fsa", "bt"])
    def test_run_rounds_batched_matches_streamed(self, protocol, timing):
        """``run_rounds`` runs a job's rounds in one kernel call; that
        equals a streamed loop of one-round calls."""
        case = SimulationCase("t", 60, 32)
        kids = tuple(children(10, rounds=5))
        job = GridPointJob(
            case=case,
            protocol=protocol,
            scheme="qcd-8",
            children=kids,
            timing=timing,
        )
        det = QCDDetector(8)
        if protocol == "fsa":
            streamed = [
                fsa_fast_batch(60, 32, det, timing, [c]).runs[0]
                for c in kids
            ]
        else:
            streamed = bt_one_per_call(60, det, timing, kids)
        runs = run_rounds(job)
        assert len(runs) == 5
        assert all(stats_equal(x, y) for x, y in zip(runs, streamed))

    def test_run_rounds_unknown_protocol(self, timing):
        job = GridPointJob(
            case=SimulationCase("t", 10, 8),
            protocol="qt",
            scheme="qcd-8",
            children=tuple(children(11, rounds=1)),
            timing=timing,
        )
        with pytest.raises(ValueError, match="unknown protocol"):
            run_rounds(job)


class TestAggregate:
    def test_aggregate_matches_from_runs(self, timing):
        batch = fsa_fast_batch(N, F, QCDDetector(8), timing, children(12))
        agg = batch.aggregate()
        assert agg == AggregateStats.from_runs(list(batch.runs))

    def test_empty_runs(self):
        assert BatchResult(runs=()).runs == ()


class TestDelayStats:
    def test_from_array_matches_from_delays(self):
        rng = np.random.default_rng(5)
        arr = rng.random(501) * 100
        assert DelayStats.from_array(arr) == DelayStats.from_delays(
            arr.tolist()
        )

    def test_assume_sorted(self):
        arr = np.sort(np.random.default_rng(6).random(100))
        assert DelayStats.from_array(
            arr, assume_sorted=True
        ) == DelayStats.from_delays(arr.tolist())

    def test_empty(self):
        a = DelayStats.from_array(np.empty(0, dtype=np.float64))
        b = DelayStats.from_delays([])
        assert a.count == b.count == 0
        assert np.isnan(a.mean) and np.isnan(b.mean)


MISS_DETECTORS = {
    **{f"qcd-{k}": (lambda k=k: QCDDetector(k)) for k in (1, 2, 4, 8, 16)},
    "crc-16": lambda: CRCCDDetector(id_bits=64, crc_spec=CRC16_GEN2),
    "crc": lambda: CRCCDDetector(id_bits=64),
    "ideal": lambda: IdealDetector(64),
}


class TestMissEval:
    @pytest.mark.parametrize("scheme", sorted(MISS_DETECTORS))
    def test_lut_bitwise_matches_closure(self, scheme):
        """The memoized table, gathered at every case-IV collision size,
        equals the closure bit for bit."""
        det = MISS_DETECTORS[scheme]()
        m = np.arange(0, 50_001, dtype=np.int64)
        got = _miss_eval(det)(m)
        want = _miss_prob_fn(det)(m)
        assert got.dtype == want.dtype == np.float64
        assert np.array_equal(got.view(np.uint64), want.view(np.uint64))

    @pytest.mark.parametrize("scheme", sorted(MISS_DETECTORS))
    def test_tables_are_small_and_read_only(self, scheme):
        table = _miss_table(_miss_key(MISS_DETECTORS[scheme]()))
        assert 1 <= table.size <= 1100
        assert not table.flags.writeable
        with pytest.raises(ValueError):
            table[0] = 0.5
        # Memoized per detector parameters, not per instance.
        assert _miss_table(_miss_key(MISS_DETECTORS[scheme]())) is table

    def test_unknown_detector_falls_back_to_closure(self):
        class Odd:
            def miss_probability(self, m: int) -> float:
                return 1.0 / (m + 1)

        det = Odd()
        assert _miss_key(det) is None
        m = np.arange(0, 50, dtype=np.int64)
        assert np.array_equal(_miss_eval(det)(m), _miss_prob_fn(det)(m))


class TestSplitLefts:
    def test_bounds_and_determinism(self):
        m = np.array([1, 2, 17, 63, 64], dtype=np.int64)
        a = _split_lefts(m, np.random.default_rng(7))
        b = _split_lefts(m, np.random.default_rng(7))
        assert np.array_equal(a, b)
        assert np.all(a >= 0) and np.all(a <= m)

    def test_multiword_groups(self):
        m = np.array([65, 200, 3], dtype=np.int64)
        lefts = _split_lefts(m, np.random.default_rng(8))
        assert np.all(lefts >= 0) and np.all(lefts <= m)

    def test_binomial_mean(self):
        rng = np.random.default_rng(9)
        m = np.full(4000, 40, dtype=np.int64)
        lefts = _split_lefts(m, rng)
        assert abs(lefts.mean() - 20.0) < 0.5


class TestValidation:
    def test_fsa_rejects_bad_shapes(self, timing):
        det = QCDDetector(8)
        with pytest.raises(ValueError):
            fsa_fast_batch(-1, F, det, timing, children(13, rounds=1))
        with pytest.raises(ValueError):
            fsa_fast_batch(N, 0, det, timing, children(13, rounds=1))

    def test_dfsa_rejects_bad_bounds(self, timing):
        det = QCDDetector(8)
        with pytest.raises(ValueError):
            dfsa_fast_batch(
                N,
                16,
                SchouteEstimator(),
                det,
                timing,
                children(14, rounds=1),
                min_frame_size=8,
                max_frame_size=4,
            )

    def test_bt_rejects_negative(self, timing):
        with pytest.raises(ValueError):
            bt_fast_batch(-1, QCDDetector(8), timing, children(15, rounds=1))


# ----------------------------------------------------------------------
# golden pin


def generate() -> dict:
    """Batched-kernel counts at the streamed golden's grid point."""
    timing = TimingModel()
    n_tags, seed, strength = 30, 2010, 4

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

    out = {
        "_config": {
            "n_tags": n_tags,
            "frame_size": 16,
            "seed": seed,
            "scheme": f"qcd-{strength}",
        },
        "fsa-batch": _counts(
            fsa_fast_batch(
                n_tags,
                16,
                QCDDetector(strength),
                timing,
                [np.random.default_rng(seed)],
            ).runs[0]
        ),
        "dfsa-batch": _counts(
            dfsa_fast_batch(
                n_tags,
                16,
                SchouteEstimator(),
                QCDDetector(strength),
                timing,
                [np.random.default_rng(seed)],
            ).runs[0]
        ),
        "bt-batch": _counts(
            bt_fast_batch(
                n_tags,
                QCDDetector(strength),
                timing,
                [np.random.default_rng(seed)],
            ).runs[0]
        ),
    }
    return out


class TestGoldenBatch:
    def test_matches_golden_file_exactly(self):
        golden = json.loads(GOLDEN_PATH.read_text())
        assert generate() == golden

    def test_batched_matches_streamed_golden_entries(self):
        """The batched kernels must reproduce the *streamed* golden
        entries too -- same grid point, same seed, same counts."""
        streamed = json.loads(
            (GOLDEN_PATH.parent / "golden_slot_distribution.json").read_text()
        )
        batched = generate()
        assert batched["fsa-batch"] == streamed["fsa-fast"]
        assert batched["bt-batch"] == streamed["bt-fast"]


if __name__ == "__main__":
    GOLDEN_PATH.parent.mkdir(parents=True, exist_ok=True)
    GOLDEN_PATH.write_text(
        json.dumps(generate(), indent=2, sort_keys=True) + "\n"
    )
    print(f"wrote {GOLDEN_PATH}")
