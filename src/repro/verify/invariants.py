"""Debug-mode engine invariants (the checks behind ``docs/VERIFICATION.md``).

The reader's slot loop and the mobile engine re-derive, on demand, the
facts the rest of the reproduction takes for granted:

* **slot truth** -- a slot's ground-truth type is exactly determined by
  its responder count (0 -> idle, 1 -> single, >= 2 -> collided);
* **durations** -- every slot's airtime equals the
  :class:`~repro.core.timing.TimingModel` re-derivation for the detector
  and the *detected* verdict;
* **QCD consistency** -- a slot the detector called single carries a
  preamble satisfying ``c == f(r)`` (Algorithm 1's acceptance test);
* **partition** -- true and detected slot counts both partition the
  trace (paper Section III: X + Y + Z = 1 per slot);
* **identification** -- identified IDs are unique, a subset of the
  population, disjoint from lost IDs; the airtime clock is monotone; a
  completed static inventory accounts for every tag.

The checker follows the :mod:`repro.obs.state` switchboard pattern: the
hot paths pay one attribute load and branch when it is off (budget
asserted by ``benchmarks/test_ablation_verify.py``).  Enable it in-process
via :func:`enable` / :func:`checking`, or from the environment with
``REPRO_VERIFY_INVARIANTS=1`` (strict: violations raise) or
``REPRO_VERIFY_INVARIANTS=collect`` (record only).  Violations are also
counted into the observability registry (when enabled) under
``repro_invariant_violations_total{check=...}``.
"""

from __future__ import annotations

import os
from dataclasses import dataclass
from typing import Sequence

from repro.bits.bitvec import BitVector
from repro.core.detector import SlotType
from repro.core.qcd import QCDDetector
from repro.obs import instruments as _inst
from repro.obs.state import STATE as _OBS

__all__ = [
    "ENV_FLAG",
    "InvariantViolation",
    "Violation",
    "InvariantState",
    "STATE",
    "enable",
    "disable",
    "reset",
    "is_enabled",
    "checking",
    "check_slot",
    "check_inventory",
]

#: Set to ``1`` (strict) or ``collect`` (record-only) to enable from the
#: environment; anything falsy leaves the checker off.
ENV_FLAG = "REPRO_VERIFY_INVARIANTS"


class InvariantViolation(AssertionError):
    """An engine invariant failed (raised only in strict mode)."""


@dataclass(frozen=True)
class Violation:
    """One recorded invariant failure."""

    check: str
    message: str


class InvariantState:
    """The flag, the mode and the violation log, in one attribute load."""

    __slots__ = ("enabled", "strict", "violations")

    def __init__(self) -> None:
        self.enabled: bool = False
        self.strict: bool = True
        self.violations: list[Violation] = []


#: The process-wide instance the instrumented engines guard on.
STATE = InvariantState()


def enable(strict: bool = True) -> InvariantState:
    """Turn invariant checking on.

    ``strict=True`` raises :class:`InvariantViolation` at the first
    failure; ``strict=False`` records failures in ``STATE.violations``
    (and the obs registry) and lets the run continue.
    """
    STATE.enabled = True
    STATE.strict = strict
    return STATE


def disable() -> InvariantState:
    STATE.enabled = False
    return STATE


def reset() -> InvariantState:
    """Clear the violation log (the enabled flag is untouched)."""
    STATE.violations = []
    return STATE


def is_enabled() -> bool:
    return STATE.enabled


class checking:
    """Context manager: enable checks inside, restore the prior state after.

    >>> with checking(strict=False) as inv:
    ...     reader.run_inventory(tags, protocol)
    >>> inv.violations
    []
    """

    def __init__(self, strict: bool = True) -> None:
        self._strict = strict
        self._prior: tuple[bool, bool] | None = None

    def __enter__(self) -> InvariantState:
        self._prior = (STATE.enabled, STATE.strict)
        enable(strict=self._strict)
        return STATE

    def __exit__(self, *exc) -> None:
        assert self._prior is not None
        STATE.enabled, STATE.strict = self._prior


def _report(check: str, message: str) -> None:
    STATE.violations.append(Violation(check, message))
    if _OBS.enabled:
        _OBS.registry.counter(
            _inst.INVARIANT_VIOLATIONS,
            "Engine invariant violations",
            labelnames=("check",),
        ).labels(check=check).inc()
    if STATE.strict:
        raise InvariantViolation(f"{check}: {message}")


def check_slot(record, detector, timing, value: int | None) -> None:
    """Per-slot invariants; called by the engines when the checker is on.

    ``record`` is the freshly built :class:`~repro.sim.trace.SlotRecord`
    (typed loosely so this module never imports :mod:`repro.sim`, which
    imports it back), ``value`` the packed channel output the detector
    classified (``None`` for an idle slot).
    """
    n = record.n_responders
    expected_true = (
        SlotType.IDLE
        if n == 0
        else SlotType.SINGLE
        if n == 1
        else SlotType.COLLIDED
    )
    if record.true_type is not expected_true:
        _report(
            "slot_true_type",
            f"slot {record.index}: {n} responders but true_type="
            f"{record.true_type.name}",
        )
    expected_duration = timing.slot_duration(detector, record.detected_type)
    if record.duration != expected_duration:
        _report(
            "slot_duration",
            f"slot {record.index}: duration {record.duration} != "
            f"TimingModel re-derivation {expected_duration} "
            f"({detector.name}, detected {record.detected_type.name})",
        )
    if (
        record.detected_type is SlotType.SINGLE
        and value
        and isinstance(detector, QCDDetector)
    ):
        preamble = detector.codec.decode(BitVector(value, detector.packed_bits))
        if not detector.codec.is_consistent(preamble):
            _report(
                "qcd_preamble",
                f"slot {record.index}: detector accepted a single whose "
                f"preamble fails c == f(r)",
            )


def check_inventory(
    trace: Sequence,
    population_ids: Sequence[int],
    identified_ids: Sequence[int],
    lost_ids: Sequence[int],
    complete: bool = False,
) -> None:
    """Whole-inventory invariants; ``complete=True`` for static runs
    where the protocol finished over a fixed population (every tag must
    then be accounted for as identified or lost)."""
    true_total = detected_total = 0
    known = (SlotType.IDLE, SlotType.SINGLE, SlotType.COLLIDED)
    prev_end = None
    for rec in trace:
        if rec.true_type in known:
            true_total += 1
        if rec.detected_type in known:
            detected_total += 1
        if rec.duration < 0:
            _report(
                "clock_monotone",
                f"slot {rec.index}: negative duration {rec.duration}",
            )
        if prev_end is not None and rec.end_time < prev_end:
            _report(
                "clock_monotone",
                f"slot {rec.index}: end_time {rec.end_time} < previous "
                f"{prev_end}",
            )
        prev_end = rec.end_time
    if true_total != len(trace) or detected_total != len(trace):
        _report(
            "slot_partition",
            f"slot types do not partition the trace: {true_total} true / "
            f"{detected_total} detected of {len(trace)} slots",
        )
    pop = set(population_ids)
    ident = list(identified_ids)
    ident_set = set(ident)
    if len(ident_set) != len(ident):
        _report(
            "identified_unique",
            f"{len(ident) - len(ident_set)} duplicate identified IDs",
        )
    if not ident_set <= pop:
        _report(
            "identified_subset",
            f"{len(ident_set - pop)} identified IDs outside the population",
        )
    lost_set = set(lost_ids)
    if lost_set & ident_set:
        _report(
            "lost_disjoint",
            f"{len(lost_set & ident_set)} IDs both identified and lost",
        )
    if complete and (ident_set | lost_set) != pop:
        missing = pop - (ident_set | lost_set)
        _report(
            "inventory_complete",
            f"{len(missing)} tags neither identified nor lost after a "
            f"completed inventory",
        )


_env = os.environ.get(ENV_FLAG, "").strip()
if _env and _env not in ("0", "false", "False"):
    enable(strict=_env != "collect")
del _env
