"""Differential-oracle verification and engine invariants.

The reproduction simulates the same stochastic process three times over
-- the exact bit-level :class:`~repro.sim.reader.Reader`, the vectorized
kernels of :mod:`repro.sim.batch` and the closed-form theory in
:mod:`repro.analysis` -- and this package is the standing proof that they
agree:

* :mod:`repro.verify.comparisons` -- the comparison statistics (exact
  equality, relative/absolute error bands, two-sample KS and mean tests);
* :mod:`repro.verify.oracles` -- the registry of oracle pairs, each
  binding two backends to a statistic and a tolerance;
* :mod:`repro.verify.runner` -- the sweep driver (``repro-verify`` CLI)
  that executes oracles over the config grid, reusing the parallel
  executor and on-disk result cache of :mod:`repro.experiments`;
* :mod:`repro.verify.invariants` -- debug-mode invariant checks hooked
  into the reader/engine slot loops, off by default and near-zero-cost
  when off;
* :mod:`repro.verify.strategies` -- the shared Hypothesis strategy
  library the property suites draw from.

Submodules are loaded lazily: ``strategies`` needs Hypothesis (a dev-only
dependency), and ``oracles``/``runner`` import :mod:`repro.sim`, which
itself imports :mod:`repro.verify.invariants` at load -- eager imports
here would either drag in dev dependencies or create an import cycle.
"""

from __future__ import annotations

import importlib

_SUBMODULES = (
    "cli",
    "comparisons",
    "invariants",
    "oracles",
    "runner",
    "strategies",
)

__all__ = list(_SUBMODULES)


def __getattr__(name: str):
    if name in _SUBMODULES:
        return importlib.import_module(f"repro.verify.{name}")
    raise AttributeError(f"module 'repro.verify' has no attribute {name!r}")


def __dir__() -> list[str]:
    return sorted(set(globals()) | set(_SUBMODULES))
