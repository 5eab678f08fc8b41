"""Ablation -- round-batched kernels vs the frozen per-round kernel loop.

Two engines per protocol at the paper's case IV (50 000 tags,
ℱ = 30 000, QCD-8):

* **frozen**  -- the vendored pre-batching seed kernels
  (``_reference_kernels.py``) in a per-round loop, the fixed ablation
  baseline;
* **batched** -- one :mod:`repro.sim.batch` call for all rounds.

Timings are interleaved best-of-``REPEATS`` (min rejects scheduler
noise; alternating engines keeps a sustained spike from landing on one
side only).  The asserted floors are the *measured-achievable envelope*
with a noise margin, not an aspirational ≥5x for FSA/DFSA: the batched
FSA/DFSA kernels consume each round's stream exactly like the frozen
kernels and reproduce every per-round ``InventoryStats`` bit for bit
(asserted by ``tests/sim/test_batch.py``), which bounds how much work
batching can elide.  The ≥5x-class win does exist where a scalar
per-round loop was actually replaced: the frozen BT walker (popcount
splits land >5x; floor kept at 2x for noise headroom).  True measured ratios are recorded
in ``BENCH_kernels.json`` next to the asserted floors; see
``docs/PERFORMANCE.md`` for the full analysis.

The reader ablation pins the live Reader's per-slot loop faster than the
frozen object Reader (``_reference_reader.py``) on a 1 000-tag QCD
inventory, and its frame-batched path faster than its per-slot loop.
"""

from __future__ import annotations

import json
import time
from pathlib import Path

import numpy as np
import pytest

import _reference_kernels as frozen
import _reference_reader
from repro.bits.rng import make_rng
from repro.core.qcd import QCDDetector
from repro.core.timing import TimingModel
from repro.protocols.estimators import SchouteEstimator
from repro.protocols.fsa import FramedSlottedAloha
from repro.sim.batch import bt_fast_batch, dfsa_fast_batch, fsa_fast_batch
from repro.sim.reader import Reader
from repro.tags.population import TagPopulation

N, F = 50_000, 30_000  # case IV
ROUNDS = 4
REPEATS = 3
TIMING = TimingModel()

RESULTS_PATH = Path("BENCH_kernels.json")
_results: dict[str, dict] = {}


@pytest.fixture(scope="module", autouse=True)
def record_results():
    """Merge the measured case-IV ratios into ``BENCH_kernels.json``."""
    yield
    if not _results:
        return
    doc = (
        json.loads(RESULTS_PATH.read_text())
        if RESULTS_PATH.is_file()
        else {}
    )
    doc["ablation_case_iv"] = {
        "n_tags": N,
        "frame_size": F,
        "rounds": ROUNDS,
        "repeats": REPEATS,
        **_results,
    }
    RESULTS_PATH.write_text(json.dumps(doc, indent=2, sort_keys=True) + "\n")


def _children(salt: int, rounds: int = ROUNDS):
    return np.random.SeedSequence([20_104, salt]).spawn(rounds)


def _gens(kids):
    return [np.random.Generator(np.random.PCG64(c)) for c in kids]


def _interleaved_best(engines: dict[str, tuple], repeats: int = REPEATS):
    """Best-of wall time per engine, in ms per round, alternating engines
    within each repeat so noise spikes cannot bias one side."""
    best = {name: float("inf") for name in engines}
    for _ in range(repeats):
        for name, (fn, rounds) in engines.items():
            t0 = time.perf_counter()
            fn()
            best[name] = min(best[name], time.perf_counter() - t0)
    return {
        name: best[name] / engines[name][1] * 1_000.0 for name in engines
    }


def _assert_and_record(proto: str, ms: dict, floors: dict) -> None:
    ratios = {"speedup_vs_frozen": ms["frozen"] / ms["batched"]}
    _results[proto] = {
        **{f"{k}_ms_per_round": v for k, v in ms.items()},
        **ratios,
        "floors": floors,
    }
    assert ratios["speedup_vs_frozen"] >= floors["vs_frozen"], (
        f"{proto}: batched {ms['batched']:.2f} ms/round vs frozen "
        f"{ms['frozen']:.2f} -- {ratios['speedup_vs_frozen']:.2f}x < "
        f"floor {floors['vs_frozen']}x"
    )


@pytest.mark.benchmark(group="batch-ablation")
def test_fsa_batched_vs_round_loop(benchmark):
    det = QCDDetector(8)
    ms = _interleaved_best(
        {
            "frozen": (
                lambda: [
                    frozen.fsa_fast(N, F, det, TIMING, g)
                    for g in _gens(_children(1))
                ],
                ROUNDS,
            ),
            "batched": (
                lambda: fsa_fast_batch(N, F, det, TIMING, _children(1)),
                ROUNDS,
            ),
        }
    )
    benchmark.extra_info.update(ms)
    benchmark.pedantic(
        lambda: fsa_fast_batch(N, F, det, TIMING, _children(1)),
        rounds=1,
        iterations=1,
    )
    _assert_and_record(
        "fsa", ms, {"vs_frozen": 1.3}
    )


@pytest.mark.benchmark(group="batch-ablation")
def test_dfsa_batched_vs_round_loop(benchmark):
    det = QCDDetector(8)
    kw = {"max_frame_size": 1 << 17}
    ms = _interleaved_best(
        {
            "frozen": (
                lambda: [
                    frozen.dfsa_fast(
                        N, F, SchouteEstimator(), det, TIMING, g, **kw
                    )
                    for g in _gens(_children(2))
                ],
                ROUNDS,
            ),
            "batched": (
                lambda: dfsa_fast_batch(
                    N, F, SchouteEstimator(), det, TIMING, _children(2), **kw
                ),
                ROUNDS,
            ),
        }
    )
    benchmark.extra_info.update(ms)
    benchmark.pedantic(
        lambda: dfsa_fast_batch(
            N, F, SchouteEstimator(), det, TIMING, _children(2), **kw
        ),
        rounds=1,
        iterations=1,
    )
    _assert_and_record(
        "dfsa", ms, {"vs_frozen": 1.15}
    )


@pytest.mark.benchmark(group="batch-ablation")
def test_bt_batched_vs_round_loop(benchmark):
    det = QCDDetector(8)
    ms = _interleaved_best(
        {
            # The frozen scalar walker is ~10x slower; one round is plenty.
            "frozen": (
                lambda: [
                    frozen.bt_fast(N, det, TIMING, g)
                    for g in _gens(_children(3, 1))
                ],
                1,
            ),
            "batched": (
                lambda: bt_fast_batch(N, det, TIMING, _children(3)),
                ROUNDS,
            ),
        }
    )
    benchmark.extra_info.update(ms)
    benchmark.pedantic(
        lambda: bt_fast_batch(N, det, TIMING, _children(3)),
        rounds=1,
        iterations=1,
    )
    _assert_and_record(
        "bt", ms, {"vs_frozen": 2.0}
    )


@pytest.mark.benchmark(group="batch-ablation")
def test_reader_packed_beats_object_path(benchmark):
    """A 1 000-tag QCD-8 inventory: the live per-slot loop (the frame
    partition withheld) must beat the frozen object Reader, and frame
    batching must beat the per-slot loop."""
    n = 1_000

    def once(tier: str) -> float:
        pop = TagPopulation(n, id_bits=TIMING.id_bits, rng=make_rng(7))
        protocol = FramedSlottedAloha(n)
        if tier == "object":
            reader = _reference_reader.Reader(QCDDetector(8), TIMING)
        else:
            reader = Reader(QCDDetector(8), TIMING)
            if tier == "packed":
                protocol.frame_partition = lambda: None
        t0 = time.perf_counter()
        reader.run_inventory(pop.tags, protocol)
        return time.perf_counter() - t0

    t_obj = t_packed = t_batched = float("inf")
    for _ in range(8):
        t_obj = min(t_obj, once("object"))
        t_packed = min(t_packed, once("packed"))
        t_batched = min(t_batched, once("batched"))
    speedup = t_obj / t_packed
    batched_speedup = t_obj / t_batched
    benchmark.extra_info.update(
        {"object_ms": t_obj * 1e3, "packed_ms": t_packed * 1e3,
         "batched_ms": t_batched * 1e3, "speedup": speedup,
         "batched_speedup": batched_speedup}
    )
    benchmark.pedantic(lambda: once("batched"), rounds=1, iterations=1)
    _results["reader"] = {
        "object_ms": t_obj * 1e3,
        "packed_ms": t_packed * 1e3,
        "batched_ms": t_batched * 1e3,
        "packed_speedup": speedup,
        "batched_speedup": batched_speedup,
    }
    assert speedup > 1.0, (
        f"per-slot loop slower than the object Reader: {speedup:.2f}x "
        f"({t_packed * 1e3:.1f} ms vs {t_obj * 1e3:.1f} ms)"
    )
    assert t_batched < t_packed, (
        f"frame batching slower than the per-slot packed path "
        f"({t_batched * 1e3:.1f} ms vs {t_packed * 1e3:.1f} ms)"
    )
