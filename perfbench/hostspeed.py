"""How fast the host runs right now, from a fixed reference probe.

A shared host's speed drifts over minutes, beyond the fast and slow
phases that :data:`perfbench.stats.QUIET_Q` reads past: on a 2-vCPU
host the probe's quiet time moved between 5.7 and 9.5 ms within an hour.
The probe is a fixed piece of the benchmark's own work (interpreter-bound
Python plus vectorised numpy, the two kinds of work the program does),
so a change to the program cannot change it.  Timed between the cycles
of a closed loop, its quiet time says how fast the host ran during the
run, and the timed metrics are scaled to a host on which the probe's
quiet time is :data:`NOMINAL_S`.
"""

from __future__ import annotations

import time

import numpy as np

from perfbench.stats import QUIET_Q, percentile

#: Quiet probe time on the reference host (about that of a quiet 2-vCPU
#: shared host): the figures read as if the run had had a host this fast.
NOMINAL_S = 0.006

_WORDS = np.random.default_rng(0).integers(0, 2**62, size=150_000, dtype=np.uint64)
_CUTS = np.arange(0, _WORDS.size, 7)


def probe() -> float:
    """Seconds the reference work takes now."""
    t0 = time.perf_counter()
    table: dict[int, int] = {}
    for i in range(30_000):
        table[i % 97] = table.get(i % 97, 0) + (i * i) % 13
    rows = [(k, v) for k, v in table.items()]
    rows.sort(key=lambda kv: kv[1])
    np.sort(_WORDS)
    np.bitwise_or.reduceat(_WORDS, _CUTS)
    return time.perf_counter() - t0


class HostSpeed:
    """Probe samples of one run and the scale they give."""

    def __init__(self) -> None:
        self.samples: list[float] = []

    def sample(self, times: int = 1) -> None:
        self.samples.extend(probe() for _ in range(times))

    def slowness(self) -> float:
        """How much slower than the reference host this run's host was
        (below 1: faster): a time measured on this run, divided by this,
        is the time on the reference host."""
        if not self.samples:
            raise ValueError("no host speed samples")
        return percentile(self.samples, QUIET_Q) / NOMINAL_S

    def apply(self, metrics: dict[str, float], lines: list[str]) -> dict[str, float]:
        """``metrics`` scaled to the reference host (see :func:`scale`),
        with a line for ``lines`` that gives the host speed and the
        figures before scaling."""
        slowness = self.slowness()
        lines.append(
            f"host: probe quiet time {slowness * NOMINAL_S * 1e3:.3f} ms over "
            f"{len(self.samples)} samples, {slowness:.4f}x the reference "
            f"host's; unscaled: "
            + ", ".join(f"{k}={v:.6g}" for k, v in metrics.items())
        )
        return scale(metrics, slowness)


def scale(metrics: dict[str, float], slowness: float) -> dict[str, float]:
    """Timed metrics on this run's host, as on the reference host: rates
    (``*_per_s``) times ``slowness``, times (``*_ms``, ``*_s``) divided
    by it."""
    out = {}
    for name, value in metrics.items():
        if name.endswith("_per_s"):
            out[name] = value * slowness
        elif name.endswith(("_ms", "_s")):
            out[name] = value / slowness
        else:
            raise ValueError(f"no rule to scale {name}")
    return out
