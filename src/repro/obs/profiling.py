"""Profiling timers: wall-time histograms per named code section.

Sections record into the registry histogram ``repro_profile_seconds``
with one ``section`` label per instrumented hot path (the exact reader's
inventory loop, each vectorized kernel, each Monte-Carlo grid point --
see ``docs/OBSERVABILITY.md`` for the full list).

Usage::

    from repro.obs.profiling import profile, profiled

    with profile("batch.fsa_fast_batch"):
        ...hot path...

    @profiled("analysis.heavy")
    def heavy(...): ...

When observability is disabled :func:`profile` returns a shared no-op
context manager -- no allocation, no clock read -- so wrapping a hot path
costs one function call and one ``with`` setup.  That is cheap per
*inventory or kernel call*; per-slot granularity should use the counter
guard pattern instead (see :mod:`repro.obs.state`).
"""

from __future__ import annotations

import functools
import time
from typing import Callable, TypeVar

from repro.obs.state import STATE

__all__ = ["profile", "profiled", "PROFILE_METRIC"]

PROFILE_METRIC = "repro_profile_seconds"
_PROFILE_HELP = "Wall time of instrumented code sections"

F = TypeVar("F", bound=Callable)


class _NullTimer:
    """Shared do-nothing context manager for the disabled path."""

    __slots__ = ()

    def __enter__(self) -> "_NullTimer":
        return self

    def __exit__(self, *exc_info: object) -> None:
        pass


_NULL_TIMER = _NullTimer()


class _Timer:
    __slots__ = ("section", "_t0")

    def __init__(self, section: str) -> None:
        self.section = section

    def __enter__(self) -> "_Timer":
        self._t0 = time.perf_counter()
        return self

    def __exit__(self, *exc_info: object) -> None:
        elapsed = time.perf_counter() - self._t0
        STATE.registry.histogram(
            PROFILE_METRIC, _PROFILE_HELP, labelnames=("section",)
        ).labels(section=self.section).observe(elapsed)


def profile(section: str):
    """Context manager timing ``section`` into the profile histogram.

    Returns a shared no-op when observability is disabled.
    """
    if not STATE.enabled:
        return _NULL_TIMER
    return _Timer(section)


def profiled(section: str) -> Callable[[F], F]:
    """Decorator form of :func:`profile`."""

    def deco(fn: F) -> F:
        @functools.wraps(fn)
        def wrapper(*args: object, **kwargs: object):
            if not STATE.enabled:
                return fn(*args, **kwargs)
            with _Timer(section):
                return fn(*args, **kwargs)

        return wrapper  # type: ignore[return-value]

    return deco
