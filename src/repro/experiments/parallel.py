"""Parallel execution of Monte-Carlo rounds (deterministic sharding).

The evaluation grid's rounds are embarrassingly parallel: every round of
a grid point draws from its own pre-spawned ``SeedSequence`` child, so
the *work list* -- not the RNG -- is the unit of distribution.  This
module owns that execution layer:

* :func:`run_rounds` -- the single execution funnel both paths share:
  one :mod:`repro.sim.batch` kernel call per shard;
* :class:`SerialExecutor` -- runs the loop inline (the default; identical
  to the historical single-process behaviour);
* :class:`ProcessExecutor` -- shards the children into contiguous chunks
  and fans them out over a ``ProcessPoolExecutor``, then concatenates
  shard results *in shard order*.

Because the children are spawned once by the caller and each round's
generator depends only on its child, the concatenated run list -- and
therefore :class:`~repro.experiments.runner.AggregateStats` -- is
bit-identical for any worker count (asserted by
``tests/experiments/test_parallel.py``).

Observability: workers cannot increment the parent's registry, so each
worker runs with a fresh enabled registry of its own and ships it back
with the shard; the executor folds the shards into the parent via
:meth:`repro.obs.registry.MetricsRegistry.merge`.  Span *tracing* inside
workers is not forwarded (the parent still emits its own ``grid_point``
spans).
"""

from __future__ import annotations

from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, replace
from typing import Sequence

import numpy as np

from repro.core.crc_cd import CRCCDDetector
from repro.core.detector import CollisionDetector
from repro.core.qcd import QCDDetector
from repro.core.timing import TimingModel
from repro.experiments.config import ID_BITS, SimulationCase
from repro.obs import instruments as _inst
from repro.obs.registry import MetricsRegistry
from repro.obs.state import STATE as _OBS
from repro.sim.batch import bt_fast_batch, fsa_fast_batch
from repro.sim.metrics import InventoryStats

__all__ = [
    "GridPointJob",
    "ShardResult",
    "SerialExecutor",
    "ProcessExecutor",
    "make_detector",
    "make_executor",
    "run_rounds",
    "shard_rounds",
]


def make_detector(scheme: str, id_bits: int = ID_BITS) -> CollisionDetector:
    """Detector factory for grid keys: ``"crc"`` or ``"qcd-<strength>"``."""
    if scheme == "crc":
        return CRCCDDetector(id_bits=id_bits)
    if scheme.startswith("qcd-"):
        return QCDDetector(strength=int(scheme.split("-", 1)[1]))
    raise ValueError(f"unknown scheme {scheme!r}")


@dataclass(frozen=True)
class GridPointJob:
    """Everything a worker needs to run (a shard of) one grid point.

    ``children`` are the pre-spawned per-round ``SeedSequence`` children,
    in round order.  ``observe`` mirrors the parent's ``repro.obs``
    enabled flag at submission time.
    """

    case: SimulationCase
    protocol: str
    scheme: str
    children: tuple[np.random.SeedSequence, ...]
    timing: TimingModel
    observe: bool = False


@dataclass
class ShardResult:
    """One shard's rounds plus the worker-local metrics registry."""

    runs: list[InventoryStats]
    registry: MetricsRegistry | None = None


def run_rounds(job: GridPointJob) -> list[InventoryStats]:
    """Execute a job's rounds as one batched kernel call.

    This is the only place rounds execute -- serial path, worker
    processes and tests all funnel through it, which is what makes the
    parallel results bit-identical to the serial ones.
    """
    detector = make_detector(job.scheme, id_bits=job.timing.id_bits)
    if job.protocol == "fsa":
        result = fsa_fast_batch(
            job.case.n_tags,
            job.case.frame_size,
            detector,
            job.timing,
            job.children,
        )
    elif job.protocol == "bt":
        result = bt_fast_batch(
            job.case.n_tags, detector, job.timing, job.children
        )
    else:
        raise ValueError(f"unknown protocol {job.protocol!r}")
    runs = list(result.runs)
    if _OBS.enabled and runs:
        _OBS.registry.counter(
            _inst.MC_ROUNDS, "Monte-Carlo rounds completed"
        ).inc(len(runs))
    return runs


def shard_rounds(
    children: Sequence[np.random.SeedSequence], shards: int
) -> list[tuple[np.random.SeedSequence, ...]]:
    """Split the round children into <= ``shards`` contiguous chunks.

    Order is preserved and chunk sizes differ by at most one, so
    concatenating shard results reproduces the serial round order
    exactly.  Never returns an empty chunk (fewer chunks instead).
    """
    if shards < 1:
        raise ValueError("shards must be >= 1")
    n = len(children)
    shards = min(shards, n)
    base, extra = divmod(n, shards)
    out: list[tuple[np.random.SeedSequence, ...]] = []
    start = 0
    for k in range(shards):
        size = base + (1 if k < extra else 0)
        out.append(tuple(children[start : start + size]))
        start += size
    return out


def _run_shard_in_worker(job: GridPointJob) -> ShardResult:
    """Worker entry point: run a shard with worker-local obs state.

    Worker processes may be forked with the parent's observability state
    (flag and registry) already set, so this always installs a fresh
    registry first: with ``observe`` the shard counts into it and ships
    it home, without it the inherited flag is cleared so nothing counts
    twice.
    """
    from repro.obs import state as _obs_state

    if not job.observe:
        _obs_state.STATE.enabled = False
        return ShardResult(runs=run_rounds(job))
    _obs_state.STATE.registry = MetricsRegistry()
    _obs_state.STATE.enabled = True
    try:
        runs = run_rounds(job)
    finally:
        registry = _obs_state.STATE.registry
        _obs_state.STATE.registry = MetricsRegistry()
        _obs_state.STATE.enabled = False
    return ShardResult(runs=runs, registry=registry)


class SerialExecutor:
    """Inline executor: the historical single-process behaviour.

    Obs increments land directly on the caller's registry, so no merge
    step is needed.
    """

    workers = 1

    def run(self, job: GridPointJob) -> list[InventoryStats]:
        return run_rounds(job)

    def close(self) -> None:  # symmetric with ProcessExecutor
        pass


class ProcessExecutor:
    """``ProcessPoolExecutor``-backed executor.

    The pool is created lazily on first use and reused across grid
    points; call :meth:`close` (or use the owning suite as a context
    manager) to release the workers.
    """

    def __init__(self, workers: int) -> None:
        if workers < 2:
            raise ValueError("ProcessExecutor needs workers >= 2")
        self.workers = workers
        self._pool: ProcessPoolExecutor | None = None

    def _ensure_pool(self) -> ProcessPoolExecutor:
        if self._pool is None:
            self._pool = ProcessPoolExecutor(max_workers=self.workers)
        return self._pool

    def run(self, job: GridPointJob) -> list[InventoryStats]:
        shards = shard_rounds(job.children, self.workers)
        if len(shards) == 1:
            # One round: not worth a process hop.
            return run_rounds(job)
        jobs = [replace(job, children=chunk) for chunk in shards]
        results = list(self._ensure_pool().map(_run_shard_in_worker, jobs))
        runs: list[InventoryStats] = []
        for shard in results:
            runs.extend(shard.runs)
            if shard.registry is not None:
                _OBS.registry.merge(shard.registry)
        return runs

    def close(self) -> None:
        if self._pool is not None:
            self._pool.shutdown()
            self._pool = None


def make_executor(workers: int) -> SerialExecutor | ProcessExecutor:
    """Executor for ``workers`` processes (1 -> serial, N -> pool)."""
    if workers < 1:
        raise ValueError("workers must be >= 1")
    if workers == 1:
        return SerialExecutor()
    return ProcessExecutor(workers)
