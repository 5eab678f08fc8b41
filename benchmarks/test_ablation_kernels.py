"""Ablation -- exact object-level reader vs vectorized kernels.

Quantifies the optimization the HPC guides prescribe: same stochastic
process, bit-level simulation vs numpy aggregation.  The kernels must win
by a wide margin at n = 1000 (they are what makes the 50 000-tag cases
tractable) while agreeing on the statistics (agreement is asserted in
tests/sim/test_fast.py; here we measure speed).
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.bits.rng import make_rng
from repro.core.qcd import QCDDetector
from repro.core.timing import TimingModel
from repro.protocols.bt import BinaryTree
from repro.protocols.fsa import FramedSlottedAloha
from repro.sim.batch import bt_fast_batch, fsa_fast_batch
from repro.sim.reader import Reader
from repro.tags.population import TagPopulation

N = 1000


@pytest.mark.benchmark(group="fsa-kernel")
def test_exact_reader_fsa(benchmark):
    def run():
        pop = TagPopulation(N, rng=make_rng(1))
        return Reader(QCDDetector(8), TimingModel()).run_inventory(
            pop.tags, FramedSlottedAloha(600)
        )

    result = benchmark.pedantic(run, rounds=3, iterations=1)
    assert result.stats.true_counts.single == N


@pytest.mark.benchmark(group="fsa-kernel")
def test_vectorized_kernel_fsa(benchmark):
    def run():
        return fsa_fast_batch(
            N, 600, QCDDetector(8), TimingModel(), [np.random.default_rng(1)]
        ).runs[0]

    stats = benchmark.pedantic(run, rounds=20, iterations=1)
    assert stats.true_counts.single == N


@pytest.mark.benchmark(group="bt-kernel")
def test_exact_reader_bt(benchmark):
    def run():
        pop = TagPopulation(N, rng=make_rng(2))
        return Reader(QCDDetector(8), TimingModel()).run_inventory(
            pop.tags, BinaryTree()
        )

    result = benchmark.pedantic(run, rounds=3, iterations=1)
    assert result.stats.true_counts.single == N


@pytest.mark.benchmark(group="bt-kernel")
def test_vectorized_kernel_bt(benchmark):
    def run():
        return bt_fast_batch(
            N, QCDDetector(8), TimingModel(), [np.random.default_rng(2)]
        ).runs[0]

    stats = benchmark.pedantic(run, rounds=20, iterations=1)
    assert stats.true_counts.single == N


@pytest.mark.benchmark(group="scale")
def test_kernel_case_iv_scale(benchmark):
    """One full 50 000-tag FSA inventory -- the paper's case IV -- in a
    single kernel call."""

    def run():
        return fsa_fast_batch(
            50_000,
            30_000,
            QCDDetector(8),
            TimingModel(),
            [np.random.default_rng(3)],
        ).runs[0]

    stats = benchmark.pedantic(run, rounds=3, iterations=1)
    assert stats.true_counts.single == 50_000
