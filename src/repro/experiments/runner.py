"""Monte-Carlo experiment runners with shared, memoized results.

The paper's tables and figures all derive from the same grid of runs:
{case I..IV} × {FSA, BT} × {CRC-CD, QCD-4, QCD-8, QCD-16}, averaged over
``rounds`` repetitions.  :class:`ExperimentSuite` runs each grid point at
most once (via the vectorized kernels of :mod:`repro.sim.batch`, which are
validated against the exact reader) and serves every generator from the
cache.

Two optional layers extend the in-memory memoization:

* ``workers > 1`` shards each grid point's rounds over a process pool
  (:mod:`repro.experiments.parallel`).  The per-round ``SeedSequence``
  children are spawned up front exactly as the serial path spawns them,
  so the aggregated result is bit-identical for any worker count.
* ``cache_dir`` persists every aggregated grid point to disk
  (:mod:`repro.experiments.cache`), keyed by a content hash of all
  inputs, so repeated table/figure generation across CLI invocations
  skips completed points entirely.
"""

from __future__ import annotations

import math
from dataclasses import asdict, dataclass, fields
from pathlib import Path
from typing import Callable, Iterable, Mapping

import numpy as np

from repro.core.timing import TimingModel
from repro.obs import instruments as _inst
from repro.obs.profiling import profile
from repro.obs.state import STATE as _OBS
from repro.experiments.cache import (
    SCHEMA_VERSION,
    ResultCache,
    grid_point_params,
)
from repro.experiments.config import (
    CASES,
    CRC_BITS,
    DEFAULT_ROUNDS,
    ID_BITS,
    TAU,
    SimulationCase,
)
from repro.experiments.parallel import (
    GridPointJob,
    make_detector,
    make_executor,
)
from repro.sim.metrics import InventoryStats

__all__ = ["AggregateStats", "ExperimentSuite", "make_detector"]


@dataclass(frozen=True)
class AggregateStats:
    """Round-averaged inventory statistics (means, plus delay spread)."""

    rounds: int
    n_tags: int
    frames: float
    idle: float
    single: float
    collided: float
    throughput: float
    total_time: float
    accuracy: float
    delay_mean: float
    delay_std: float
    utilization: float
    missed_collisions: float

    @property
    def total_slots(self) -> float:
        return self.idle + self.single + self.collided

    @staticmethod
    def from_runs(runs: list[InventoryStats]) -> "AggregateStats":
        if not runs:
            raise ValueError("no runs to aggregate")

        def mean(f: Callable[[InventoryStats], float]) -> float:
            return sum(f(s) for s in runs) / len(runs)

        def nan_mean(f: Callable[[InventoryStats], float]) -> float:
            # A round that identifies no tags has NaN delay stats; it
            # carries no delay information, so it is excluded rather than
            # averaged in as 0.0 (which silently biased the mean toward
            # zero).  All-NaN rounds -> NaN, not a fabricated number.
            values = [v for v in (f(s) for s in runs) if not math.isnan(v)]
            return sum(values) / len(values) if values else math.nan

        return AggregateStats(
            rounds=len(runs),
            n_tags=runs[0].n_tags,
            frames=mean(lambda s: s.frames),
            idle=mean(lambda s: s.true_counts.idle),
            single=mean(lambda s: s.true_counts.single),
            collided=mean(lambda s: s.true_counts.collided),
            throughput=mean(lambda s: s.throughput),
            total_time=mean(lambda s: s.total_time),
            accuracy=mean(lambda s: s.accuracy),
            delay_mean=nan_mean(lambda s: s.delay.mean),
            delay_std=nan_mean(lambda s: s.delay.std),
            utilization=mean(lambda s: s.utilization),
            missed_collisions=mean(lambda s: s.missed_collisions),
        )


class ExperimentSuite:
    """Memoized access to the evaluation grid.

    Parameters
    ----------
    rounds:
        Monte-Carlo repetitions per grid point (the paper uses 100).
    seed:
        Root seed; grid points get deterministic, independent substreams.
    tau / id_bits / crc_bits:
        Paper constants, overridable for sensitivity studies.
    workers:
        Processes to shard each grid point's rounds across; 1 (default)
        runs in-process.  Results are bit-identical either way.
    cache_dir:
        Directory for the on-disk result cache; ``None`` (default)
        disables persistence.
    executor:
        Pluggable round executor (anything with ``run(job)`` / ``close()``
        / ``workers``); overrides ``workers`` when given.

    Suites hold a worker pool when ``workers > 1``; call :meth:`close`
    when done, or use the suite as a context manager.
    """

    def __init__(
        self,
        rounds: int = DEFAULT_ROUNDS,
        seed: int = 2010,
        tau: float = TAU,
        id_bits: int = ID_BITS,
        crc_bits: int = CRC_BITS,
        workers: int = 1,
        cache_dir: str | Path | None = None,
        executor=None,
    ) -> None:
        if rounds < 1:
            raise ValueError("rounds must be >= 1")
        self.rounds = rounds
        self.seed = seed
        self.timing = TimingModel(tau=tau, id_bits=id_bits, crc_bits=crc_bits)
        self._executor = executor if executor is not None else make_executor(workers)
        self.workers = self._executor.workers
        self._disk = ResultCache(cache_dir) if cache_dir is not None else None
        self._cache: dict[
            tuple[SimulationCase, str, str], AggregateStats
        ] = {}

    # ------------------------------------------------------------------

    def close(self) -> None:
        """Release the executor's worker pool (no-op for serial)."""
        self._executor.close()

    def __enter__(self) -> "ExperimentSuite":
        return self

    def __exit__(self, *exc) -> None:
        self.close()

    # ------------------------------------------------------------------

    def run(
        self, case: SimulationCase | str, protocol: str, scheme: str
    ) -> AggregateStats:
        """Aggregate stats for one grid point.

        ``protocol`` is ``"fsa"`` or ``"bt"``; ``scheme`` is ``"crc"``,
        ``"qcd-4"``, ``"qcd-8"`` or ``"qcd-16"``.
        """
        if isinstance(case, str):
            case = CASES[case]
        # Memoize on the full case identity, not just its name: two ad-hoc
        # cases sharing a name but differing in n_tags/frame_size are
        # different grid points.
        key = (case, protocol, scheme)
        hit = self._cache.get(key)
        if hit is not None:
            return hit
        params = self._cache_params(case, protocol, scheme)
        stats = self._load_cached(params)
        if stats is None:
            stats = self._run_uncached(case, protocol, scheme)
            if self._disk is not None:
                self._disk.store(params, asdict(stats))
        self._cache[key] = stats
        return stats

    # -- disk cache ----------------------------------------------------

    def _cache_params(
        self, case: SimulationCase, protocol: str, scheme: str
    ) -> dict[str, object]:
        """Every input that determines a grid point's result.

        Delegates to :func:`repro.experiments.cache.grid_point_params`,
        the shared routing contract: the fleet router derives the same
        keys without constructing a suite.
        """
        return grid_point_params(
            rounds=self.rounds,
            seed=self.seed,
            tau=self.timing.tau,
            id_bits=self.timing.id_bits,
            crc_bits=self.timing.crc_bits,
            case_name=case.name,
            n_tags=case.n_tags,
            frame_size=case.frame_size,
            protocol=protocol,
            scheme=scheme,
        )

    def _load_cached(
        self, params: Mapping[str, object]
    ) -> AggregateStats | None:
        if self._disk is None:
            return None
        doc = self._disk.load(params)
        if doc is None:
            return None
        try:
            kwargs = {
                f.name: (math.nan if doc[f.name] is None else doc[f.name])
                for f in fields(AggregateStats)
            }
            return AggregateStats(**kwargs)
        except (KeyError, TypeError):
            return None  # stale/foreign entry: recompute

    # -- execution -----------------------------------------------------

    def _run_uncached(
        self, case: SimulationCase, protocol: str, scheme: str
    ) -> AggregateStats:
        obs_on = _OBS.enabled
        if obs_on:
            _OBS.tracer.start_span(
                "grid_point",
                case=case.name,
                protocol=protocol,
                scheme=scheme,
                rounds=self.rounds,
                workers=self.workers,
            )
        # One deterministic stream per grid point, independent of how
        # many other points have been run.  Every identity-bearing field
        # enters the entropy key: two cases that share a tag count but
        # differ in name or frame size get distinct substreams.
        seq = np.random.SeedSequence(
            [
                self.seed,
                _stable_hash(case.name),
                case.n_tags,
                case.frame_size,
                _stable_hash(protocol),
                _stable_hash(scheme),
            ]
        )
        # Children are spawned up front, once, in round order -- workers
        # receive contiguous chunks of this exact list, which is what
        # keeps the parallel path bit-identical to the serial one.
        job = GridPointJob(
            case=case,
            protocol=protocol,
            scheme=scheme,
            children=tuple(seq.spawn(self.rounds)),
            timing=self.timing,
            observe=obs_on,
        )
        runs: list[InventoryStats] = []
        try:
            with profile("runner.grid_point"):
                runs = self._executor.run(job)
        finally:
            if obs_on:
                _OBS.tracer.end_span(completed_rounds=len(runs))
        if obs_on:
            _OBS.registry.counter(
                _inst.GRID_POINTS,
                "Evaluation grid points completed",
                labelnames=("case", "protocol", "scheme"),
            ).labels(case=case.name, protocol=protocol, scheme=scheme).inc()
        return AggregateStats.from_runs(runs)

    # ------------------------------------------------------------------

    def grid(
        self,
        cases: Iterable[str] = ("I", "II", "III", "IV"),
        protocols: Iterable[str] = ("fsa", "bt"),
        schemes: Iterable[str] = ("crc", "qcd-4", "qcd-8", "qcd-16"),
    ) -> dict[tuple[str, str, str], AggregateStats]:
        """Run (or fetch) a sub-grid; returns {(case, protocol, scheme): stats}."""
        out = {}
        for c in cases:
            for p in protocols:
                for s in schemes:
                    out[(c, p, s)] = self.run(c, p, s)
        return out


def _stable_hash(text: str) -> int:
    """Deterministic small hash (Python's ``hash`` is salted per process)."""
    value = 0
    for ch in text:
        value = (value * 131 + ord(ch)) % (1 << 31)
    return value
