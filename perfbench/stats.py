"""Statistics and naming rules shared by the workloads."""

from __future__ import annotations

import math
import re
import statistics
from typing import Sequence

#: A metric or workload name: starts with a letter or digit, at most 64 of
#: letters, digits, ``_``, ``.`` and ``-``.
NAME_RE = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")
#: A unit: at most 16 of letters, digits, ``_``, ``/``, ``%``, ``.``, ``-``.
UNIT_RE = re.compile(r"[A-Za-z0-9_/%.-]{1,16}")
#: Percentile rank, on the fast side, at which the timed figures are read
#: from an op's repeats (or a run's blocks).  A shared host switches for
#: seconds at a time between a fast phase and phases up to twice as slow;
#: a median follows the share of the run the host spent slow, which
#: differs from run to run, while the fast end repeats.
QUIET_Q = 10


def valid_name(name: object) -> bool:
    return isinstance(name, str) and NAME_RE.fullmatch(name) is not None


def valid_unit(unit: object) -> bool:
    return isinstance(unit, str) and UNIT_RE.fullmatch(unit) is not None


def percentile(values: Sequence[float], q: float) -> float:
    """Nearest-rank percentile: the smallest value with at least ``q`` %
    of the sample at or below it (no interpolation, so it is always a
    value that was observed)."""
    if not values:
        raise ValueError("percentile of an empty sample")
    if not 0 < q <= 100:
        raise ValueError(f"percentile rank {q} outside (0, 100]")
    ordered = sorted(values)
    rank = math.ceil(q / 100.0 * len(ordered))
    return ordered[rank - 1]


def median(values: Sequence[float]) -> float:
    if not values:
        raise ValueError("median of an empty sample")
    return statistics.median(values)


def block_percentile(values: Sequence[float], q: float, block: int) -> float:
    """Median over consecutive blocks of ``block`` values of each block's
    nearest-rank percentile ``q``.

    A burst of load from outside the benchmark then moves one block's
    figure rather than the whole run's.  A trailing partial block is
    dropped; a sample shorter than one block is taken whole.
    """
    if block < 1:
        raise ValueError("block must hold at least one value")
    blocks = [
        values[i:i + block] for i in range(0, len(values) - block + 1, block)
    ] or [values]
    return median([percentile(b, q) for b in blocks])


def quiet_times(cycles: Sequence[Sequence[float]], q: float = QUIET_Q) -> list[float]:
    """Per position of a mix that was run in whole cycles: the
    nearest-rank percentile ``q`` of that op's times across the cycles,
    its time while the host ran fast (see :data:`QUIET_Q`)."""
    if not cycles or any(len(c) != len(cycles[0]) for c in cycles):
        raise ValueError("cycles must be non-empty and of one length")
    return [percentile(times, q) for times in zip(*cycles)]


def mean(values: Sequence[float]) -> float:
    return sum(values) / len(values) if values else 0.0


def ratio(num: float, den: float) -> float:
    """``num / den``, 0 when nothing was attempted."""
    return num / den if den else 0.0


def interpolate_capacity(
    steps: Sequence[tuple[float, float, bool]], slo_ms: float
) -> float:
    """Highest sustainable rate from a ladder of fixed-rate steps.

    ``steps`` are ``(rate, p95_ms, passed)`` in increasing rate order; a
    step passes when its p95 met ``slo_ms`` with no failures and no
    growing backlog.  The answer lies between the last passing step and
    the first failing one: where the line through their p95 values
    crosses the SLO, or the passing rate itself when the failing step
    broke on errors or backlog while its p95 was still within the SLO.
    With no failing step the top rate is returned (a lower bound); with
    no passing step, 0.
    """
    if not steps:
        raise ValueError("empty capacity ladder")
    rates = [s[0] for s in steps]
    if any(b <= a for a, b in zip(rates, rates[1:])):
        raise ValueError("ladder rates must increase")
    last_pass = None
    for rate, p95, passed in steps:
        if passed:
            last_pass = (rate, p95)
            continue
        if last_pass is None:
            return 0.0
        pass_rate, pass_p95 = last_pass
        if p95 <= slo_ms or p95 <= pass_p95:
            return pass_rate
        share = (slo_ms - pass_p95) / (p95 - pass_p95)
        return pass_rate + (rate - pass_rate) * min(max(share, 0.0), 1.0)
    return steps[-1][0]


def quiet_cycle_metrics(
    cycles: Sequence[Sequence[float]], units_per_cycle: float
) -> dict[str, float]:
    """The timed end-to-end metrics of a closed loop that ran its mix in
    whole ``cycles`` of op times (seconds), read at the ops' quiet times:
    cycle rates over their sum, latency percentiles over the mix."""
    quiet = quiet_times(cycles)
    cycle_s = sum(quiet)
    quiet_ms = [t * 1e3 for t in quiet]
    return {
        "ops_per_s": len(quiet) / cycle_s,
        "tags_per_s": units_per_cycle / cycle_s,
        "latency_p50_ms": percentile(quiet_ms, 50),
        "latency_p95_ms": percentile(quiet_ms, 95),
    }
