"""Ablation -- cost of the engine invariant checker on the exact reader.

Mirrors ``test_ablation_observability``: the invariant hooks in
``Reader._run_slot``/``Reader._run`` are one attribute load and a falsy
branch per slot when :mod:`repro.verify.invariants` is disabled, so the
instrumented loop must stay within 5% of the hook-free copy of the live
loop (which has neither obs nor invariant hooks), timed on a Binary Tree
inventory, whose every slot runs the per-slot hooks.  Enabled mode is
timed informationally -- re-deriving slot durations and re-decoding QCD
preambles every slot is allowed to cost real time -- and asserted clean
on a healthy run.
"""

from __future__ import annotations

import time

import pytest

from repro import obs
from repro.core.qcd import QCDDetector
from repro.core.timing import TimingModel
from repro.sim.reader import Reader
from repro.verify import invariants
from test_ablation_observability import (
    N,
    ROUNDS,
    _fresh_tree_workload,
    _fresh_workload,
    baseline_inventory,
)


@pytest.fixture(autouse=True)
def clean_state():
    obs.disable()
    obs.reset()
    invariants.disable()
    invariants.reset()
    yield
    obs.disable()
    obs.reset()
    invariants.disable()
    invariants.reset()


def _time_one(runner) -> float:
    tags, protocol = _fresh_tree_workload()
    start = time.perf_counter()
    runner(tags, protocol)
    return time.perf_counter() - start


@pytest.mark.benchmark(group="verify-overhead")
def test_disabled_invariants_overhead_under_5_percent(benchmark):
    """Invariants off (the default): the full instrumented loop -- obs
    hooks AND invariant hooks, both disabled -- within 5% of the seed
    loop, on the identical trace."""
    reader = Reader(QCDDetector(8), TimingModel())
    assert not invariants.is_enabled()

    tags, protocol = _fresh_tree_workload()
    expected = baseline_inventory(reader, tags, protocol)
    tags, protocol = _fresh_tree_workload()
    got = reader.run_inventory(tags, protocol)
    assert got.trace == expected.trace

    baseline = lambda t, p: baseline_inventory(reader, t, p)  # noqa: E731
    _time_one(baseline)  # warm both paths
    _time_one(reader.run_inventory)

    base_min = inst_min = float("inf")
    for _ in range(ROUNDS):
        base_min = min(base_min, _time_one(baseline))
        inst_min = min(inst_min, _time_one(reader.run_inventory))

    def setup():
        return _fresh_tree_workload(), {}

    benchmark.pedantic(
        reader.run_inventory, setup=setup, rounds=3, iterations=1
    )
    overhead = inst_min / base_min - 1.0
    benchmark.extra_info["baseline_min_s"] = base_min
    benchmark.extra_info["overhead_fraction"] = overhead
    assert overhead < 0.05, (
        f"disabled-invariants overhead {overhead:.1%} "
        f"(instrumented {inst_min:.4f}s vs hook-free {base_min:.4f}s)"
    )


@pytest.mark.benchmark(group="verify-overhead")
def test_enabled_invariants_clean_on_healthy_run(benchmark):
    """Strict checking armed: a healthy inventory raises nothing, records
    nothing, and still identifies every tag.  Timed for the record."""
    reader = Reader(QCDDetector(8), TimingModel())

    def setup():
        invariants.reset()
        return _fresh_workload(), {}

    def run(tags, protocol):
        with invariants.checking(strict=True):
            return reader.run_inventory(tags, protocol)

    result = benchmark.pedantic(run, setup=setup, rounds=3, iterations=1)
    assert invariants.STATE.violations == []
    assert len(result.identified_ids) == N
