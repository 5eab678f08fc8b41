"""The differential-oracle registry.

An *oracle pair* binds two implementations of the same quantity -- a
vectorized kernel and the exact reader, or a simulation and a closed-form
prediction from :mod:`repro.analysis` -- to a comparison statistic and a
tolerance (:mod:`repro.verify.comparisons`).  Every oracle runs fixed
seeds, so a failure is reproducible, never flaky; tolerances are sized
for the default round counts of :class:`repro.verify.runner.VerificationRunner`.

The registered pairs:

=========================  =============  =====================================
name                       kind           compares
=========================  =============  =====================================
fsa-kernel-vs-reader       kernel-reader  ``fsa_fast_batch`` vs exact
                                          ``Reader`` (QCD counts/time/delay,
                                          CRC time, low-l accuracy, KS on
                                          airtime)
bt-kernel-vs-reader        kernel-reader  ``bt_fast_batch`` vs exact ``Reader``
batch-reader               reader-reader  frame-batched exact Reader trace-
                                          identical to the object and per-slot
                                          packed paths (records, IDs, counters)
fsa-frame-vs-theory        sim-theory     first-frame slot counts vs the
                                          binomial model (Lemma 1's E[N1])
bt-slots-vs-theory         sim-theory     BT slot totals vs the Lemma 2
                                          recursion
fsa-ei-vs-theory           sim-theory     measured EI at F = n vs Table II's
                                          lower bounds
bt-ei-vs-theory            sim-theory     measured BT EI vs Table III averages
qcd-accuracy-vs-theory     sim-theory     low-strength accuracy vs the Section
                                          IV-B occupancy model
invariant-sweep            invariant      strict engine invariants over the
                                          protocol × detector × policy grid
=========================  =============  =====================================

Adding an oracle for a new backend: write a function taking an
:class:`OracleContext` and returning ``Check`` tuples, then decorate it
with :func:`oracle` (see ``docs/VERIFICATION.md``).
"""

from __future__ import annotations

import statistics
from dataclasses import dataclass, field
from typing import Callable, Sequence

import numpy as np

from repro.analysis.accuracy import expected_accuracy_fsa
from repro.analysis.bt_theory import (
    expected_bt_collided,
    expected_bt_idle,
    expected_bt_slots,
)
from repro.analysis.ei import bt_ei_average, fsa_ei_lower_bound, measured_ei
from repro.bits.rng import make_rng
from repro.core.crc_cd import CRCCDDetector
from repro.core.ideal import IdealDetector
from repro.core.qcd import QCDDetector
from repro.core.timing import TimingModel
from repro.experiments.config import SimulationCase
from repro.experiments.parallel import GridPointJob
from repro.experiments.runner import _stable_hash
from repro.protocols.bt import BinaryTree
from repro.protocols.dfsa import DynamicFSA
from repro.protocols.estimators import expected_slot_counts
from repro.protocols.fsa import FramedSlottedAloha
from repro.protocols.qt import QueryTree
from repro.sim.metrics import InventoryStats
from repro.sim.reader import Reader
from repro.tags.population import TagPopulation
from repro.verify import invariants
from repro.verify.comparisons import (
    Check,
    check_absolute,
    check_exact,
    check_ks,
    check_lower_bound,
    check_relative,
)

__all__ = [
    "Oracle",
    "OracleContext",
    "OracleReport",
    "ORACLES",
    "oracle",
    "get",
    "all_oracles",
]


@dataclass(frozen=True)
class OracleContext:
    """Execution knobs an oracle receives from the runner.

    ``executor`` is the PR-2 round executor (serial or process pool);
    kernel batches go through it via :meth:`kernel_rounds`, so
    ``repro-verify --workers N`` shards oracle rounds exactly like the
    experiment grid shards Monte-Carlo rounds.
    """

    rounds: int
    seed: int
    timing: TimingModel
    executor: object
    quick: bool = False

    def kernel_rounds(
        self,
        protocol: str,
        scheme: str,
        n_tags: int,
        frame_size: int = 1,
    ) -> list[InventoryStats]:
        """Per-round kernel stats for one grid point, deterministically
        seeded the same way :class:`~repro.experiments.runner.ExperimentSuite`
        seeds grid points (name fixed to ``"verify"``)."""
        case = SimulationCase("verify", n_tags, frame_size)
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
        job = GridPointJob(
            case=case,
            protocol=protocol,
            scheme=scheme,
            children=tuple(seq.spawn(self.rounds)),
            timing=self.timing,
        )
        return self.executor.run(job)

    def reader_rounds(
        self,
        protocol_factory: Callable[[], object],
        detector_factory: Callable[[], object],
        n_tags: int,
        salt: str,
        policy: str = "paper",
    ) -> list[InventoryStats]:
        """Per-round exact-reader stats (one fresh population, protocol
        and detector per round; seeds derived from ``seed`` and ``salt``)."""
        base = self.seed * 1_000_003 + _stable_hash(salt)
        out = []
        for i in range(self.rounds):
            pop = TagPopulation(
                n_tags, id_bits=self.timing.id_bits, rng=make_rng(base + i)
            )
            reader = Reader(detector_factory(), self.timing, policy=policy)
            out.append(
                reader.run_inventory(pop.tags, protocol_factory()).stats
            )
        return out


@dataclass(frozen=True)
class Oracle:
    """A registered oracle pair."""

    name: str
    kind: str  # "kernel-reader" | "reader-reader" | "sim-theory" | "invariant"
    description: str
    fn: Callable[[OracleContext], Sequence[Check]] = field(compare=False)

    def run(self, ctx: OracleContext) -> "OracleReport":
        return OracleReport(
            oracle=self.name, kind=self.kind, checks=tuple(self.fn(ctx))
        )


@dataclass(frozen=True)
class OracleReport:
    """The verdict of one oracle run."""

    oracle: str
    kind: str
    checks: tuple[Check, ...]

    @property
    def passed(self) -> bool:
        return all(c.passed for c in self.checks)

    def to_dict(self) -> dict[str, object]:
        return {
            "oracle": self.oracle,
            "kind": self.kind,
            "passed": self.passed,
            "checks": [c.to_dict() for c in self.checks],
        }

    @classmethod
    def from_dict(cls, doc: dict[str, object]) -> "OracleReport":
        return cls(
            oracle=str(doc["oracle"]),
            kind=str(doc["kind"]),
            checks=tuple(
                Check.from_dict(c) for c in doc["checks"]  # type: ignore[union-attr]
            ),
        )


#: The registry, in registration order (the order ``repro-verify`` runs).
ORACLES: dict[str, Oracle] = {}


def oracle(name: str, kind: str, description: str):
    """Decorator registering an oracle function under ``name``."""

    def wrap(fn: Callable[[OracleContext], Sequence[Check]]) -> Oracle:
        if name in ORACLES:
            raise ValueError(f"oracle {name!r} already registered")
        orc = Oracle(name=name, kind=kind, description=description, fn=fn)
        ORACLES[name] = orc
        return orc

    return wrap


def get(name: str) -> Oracle:
    try:
        return ORACLES[name]
    except KeyError:
        raise KeyError(
            f"unknown oracle {name!r}; registered: {sorted(ORACLES)}"
        ) from None


def all_oracles() -> list[Oracle]:
    return list(ORACLES.values())


def _mean(stats: Sequence[InventoryStats], f) -> float:
    return statistics.mean(f(s) for s in stats)


# ----------------------------------------------------------------------
# kernel <-> reader


@oracle(
    "fsa-kernel-vs-reader",
    "kernel-reader",
    "fsa_fast_batch vs exact Reader: slot counts, airtime, delay, accuracy",
)
def _fsa_kernel_vs_reader(ctx: OracleContext) -> list[Check]:
    n, frame = 120, 64
    exact = ctx.reader_rounds(
        lambda: FramedSlottedAloha(frame),
        lambda: QCDDetector(8),
        n,
        salt="fsa-exact-qcd8",
    )
    fast = ctx.kernel_rounds("fsa", "qcd-8", n, frame)
    checks = [
        check_relative(
            f"mean_{f}",
            _mean(fast, lambda s, f=f: getattr(s.true_counts, f)),
            _mean(exact, lambda s, f=f: getattr(s.true_counts, f)),
            0.15,
        )
        for f in ("idle", "single", "collided")
    ]
    checks.append(
        check_relative(
            "mean_total_time",
            _mean(fast, lambda s: s.total_time),
            _mean(exact, lambda s: s.total_time),
            0.10,
        )
    )
    checks.append(
        check_relative(
            "mean_delay",
            _mean(fast, lambda s: s.delay.mean),
            _mean(exact, lambda s: s.delay.mean),
            0.15,
        )
    )
    checks.append(
        check_ks(
            "ks_total_time",
            [s.total_time for s in fast],
            [s.total_time for s in exact],
        )
    )
    exact_crc = ctx.reader_rounds(
        lambda: FramedSlottedAloha(frame),
        lambda: CRCCDDetector(id_bits=ctx.timing.id_bits),
        n,
        salt="fsa-exact-crc",
    )
    fast_crc = ctx.kernel_rounds("fsa", "crc", n, frame)
    checks.append(
        check_relative(
            "crc_mean_total_time",
            _mean(fast_crc, lambda s: s.total_time),
            _mean(exact_crc, lambda s: s.total_time),
            0.10,
        )
    )
    # l = 2 misses collisions often; the kernels must reproduce the rate.
    exact_lo = ctx.reader_rounds(
        lambda: FramedSlottedAloha(frame),
        lambda: QCDDetector(2),
        n,
        salt="fsa-exact-qcd2",
    )
    fast_lo = ctx.kernel_rounds("fsa", "qcd-2", n, frame)
    checks.append(
        check_absolute(
            "qcd2_mean_accuracy",
            _mean(fast_lo, lambda s: s.accuracy),
            _mean(exact_lo, lambda s: s.accuracy),
            0.05,
        )
    )
    return checks


@oracle(
    "bt-kernel-vs-reader",
    "kernel-reader",
    "bt_fast_batch vs exact Reader: slot counts, airtime, exact single count",
)
def _bt_kernel_vs_reader(ctx: OracleContext) -> list[Check]:
    n = 120
    exact = ctx.reader_rounds(
        BinaryTree, lambda: QCDDetector(8), n, salt="bt-exact-qcd8"
    )
    fast = ctx.kernel_rounds("bt", "qcd-8", n)
    checks = [
        check_relative(
            f"mean_{f}",
            _mean(fast, lambda s, f=f: getattr(s.true_counts, f)),
            _mean(exact, lambda s, f=f: getattr(s.true_counts, f)),
            0.15,
        )
        for f in ("idle", "single", "collided")
    ]
    checks.append(
        check_relative(
            "mean_total_time",
            _mean(fast, lambda s: s.total_time),
            _mean(exact, lambda s: s.total_time),
            0.10,
        )
    )
    # BT identifies every tag in exactly one single slot, both backends.
    checks.append(
        check_exact(
            "min_singles", min(s.true_counts.single for s in fast), n
        )
    )
    checks.append(
        check_exact(
            "reader_min_singles", min(s.true_counts.single for s in exact), n
        )
    )
    checks.append(
        check_ks(
            "ks_total_time",
            [s.total_time for s in fast],
            [s.total_time for s in exact],
        )
    )
    return checks


# ----------------------------------------------------------------------
# reader <-> reader


@oracle(
    "batch-reader",
    "reader-reader",
    "frame-batched Reader trace-identical to the per-slot path",
)
def _batch_reader(ctx: OracleContext) -> list[Check]:
    """Trace identity needs no statistics: every ``SlotRecord``, the
    identified/lost ID lists and the channel counters must match between
    the Reader's per-slot loop (the protocol's frame partition withheld)
    and its frame-batched path on the same population, so each round
    contributes to one exact count.  (The frozen object Reader is held
    to the same configs, seeds and rounds by
    ``tests/sim/test_reader_reference.py``.)"""
    rounds = max(3, min(ctx.rounds, 8))
    base = ctx.seed * 1_000_003 + _stable_hash("batch-reader")
    timing32 = TimingModel(id_bits=32)
    configs = (
        ("fsa_qcd8", lambda: FramedSlottedAloha(16),
         lambda: QCDDetector(8), "paper", ctx.timing, 37),
        ("fsa_qcd2_lost", lambda: FramedSlottedAloha(8),
         lambda: QCDDetector(2), "lost", ctx.timing, 29),
        ("dfsa_qcd8", lambda: DynamicFSA(initial_frame_size=8),
         lambda: QCDDetector(8), "paper", ctx.timing, 37),
        # CRC-CD packs id ⊕ crc(id); 32-bit IDs keep it in one word.
        ("dfsa_crc", lambda: DynamicFSA(initial_frame_size=8),
         lambda: CRCCDDetector(id_bits=32), "paper", timing32, 23),
    )
    checks = []
    for c_i, (label, proto, det, policy, timing, n) in enumerate(configs):
        equal = 0
        for i in range(rounds):
            seed = base + 10_000 * c_i + i
            runs = []
            for per_slot in (True, False):
                pop = TagPopulation(
                    n, id_bits=timing.id_bits, rng=make_rng(seed)
                )
                reader = Reader(det(), timing, policy=policy)
                protocol = proto()
                if per_slot:
                    protocol.frame_partition = lambda: None
                res = reader.run_inventory(pop.tags, protocol)
                runs.append(
                    (
                        res.trace,
                        res.identified_ids,
                        res.lost_ids,
                        reader.channel.stats,
                    )
                )
            equal += all(run == runs[0] for run in runs[1:])
        checks.append(check_exact(f"identical_rounds_{label}", equal, rounds))
    return checks


# ----------------------------------------------------------------------
# simulation <-> theory


@oracle(
    "fsa-frame-vs-theory",
    "sim-theory",
    "exact Reader first-frame slot counts vs the binomial occupancy model",
)
def _fsa_frame_vs_theory(ctx: OracleContext) -> list[Check]:
    n, frame = 60, 64
    base = ctx.seed * 1_000_003 + _stable_hash("fsa-frame-theory")
    firsts = []
    for i in range(ctx.rounds):
        pop = TagPopulation(
            n, id_bits=ctx.timing.id_bits, rng=make_rng(base + i)
        )
        res = Reader(QCDDetector(8), ctx.timing).run_inventory(
            pop.tags, FramedSlottedAloha(frame)
        )
        first = [r for r in res.trace if r.frame == 1]
        idle = sum(1 for r in first if r.n_responders == 0)
        single = sum(1 for r in first if r.n_responders == 1)
        firsts.append((idle, single, len(first) - idle - single))
    e0, e1, ec = expected_slot_counts(n, frame)
    return [
        check_relative(
            "first_frame_idle",
            statistics.mean(f[0] for f in firsts),
            e0,
            0.15,
        ),
        check_relative(
            "first_frame_single",
            statistics.mean(f[1] for f in firsts),
            e1,
            0.15,
        ),
        check_relative(
            "first_frame_collided",
            statistics.mean(f[2] for f in firsts),
            ec,
            0.20,
        ),
    ]


@oracle(
    "bt-slots-vs-theory",
    "sim-theory",
    "bt_fast_batch slot totals vs the Lemma 2 exact recursion",
)
def _bt_slots_vs_theory(ctx: OracleContext) -> list[Check]:
    n = 96
    fast = ctx.kernel_rounds("bt", "qcd-16", n)
    return [
        check_relative(
            "mean_total_slots",
            _mean(fast, lambda s: s.true_counts.total),
            expected_bt_slots(n),
            0.08,
        ),
        check_relative(
            "mean_collided",
            _mean(fast, lambda s: s.true_counts.collided),
            expected_bt_collided(n),
            0.12,
        ),
        check_relative(
            "mean_idle",
            _mean(fast, lambda s: s.true_counts.idle),
            expected_bt_idle(n),
            0.20,
        ),
    ]


@oracle(
    "fsa-ei-vs-theory",
    "sim-theory",
    "measured FSA EI at F = n vs Table II's lower bounds (l = 4/8/16)",
)
def _fsa_ei_vs_theory(ctx: OracleContext) -> list[Check]:
    n = 256
    t_crc = _mean(
        ctx.kernel_rounds("fsa", "crc", n, n), lambda s: s.total_time
    )
    checks = []
    for strength in (4, 8, 16):
        t_qcd = _mean(
            ctx.kernel_rounds("fsa", f"qcd-{strength}", n, n),
            lambda s: s.total_time,
        )
        checks.append(
            check_lower_bound(
                f"ei_qcd{strength}",
                measured_ei(t_crc, t_qcd),
                fsa_ei_lower_bound(
                    strength, ctx.timing.id_bits, ctx.timing.crc_bits
                ),
                slack=0.02,
            )
        )
    return checks


@oracle(
    "bt-ei-vs-theory",
    "sim-theory",
    "measured BT EI vs Table III's averages (l = 4/8/16)",
)
def _bt_ei_vs_theory(ctx: OracleContext) -> list[Check]:
    n = 256
    t_crc = _mean(ctx.kernel_rounds("bt", "crc", n), lambda s: s.total_time)
    checks = []
    for strength in (4, 8, 16):
        t_qcd = _mean(
            ctx.kernel_rounds("bt", f"qcd-{strength}", n),
            lambda s: s.total_time,
        )
        checks.append(
            check_absolute(
                f"ei_qcd{strength}",
                measured_ei(t_crc, t_qcd),
                bt_ei_average(
                    strength, ctx.timing.id_bits, ctx.timing.crc_bits
                ),
                0.03,
            )
        )
    return checks


@oracle(
    "qcd-accuracy-vs-theory",
    "sim-theory",
    "fsa_fast_batch low-strength accuracy vs the Section IV-B occupancy "
    "model",
)
def _qcd_accuracy_vs_theory(ctx: OracleContext) -> list[Check]:
    n, frame = 200, 128
    checks = []
    for strength, tol in ((2, 0.05), (4, 0.02)):
        fast = ctx.kernel_rounds("fsa", f"qcd-{strength}", n, frame)
        checks.append(
            check_absolute(
                f"accuracy_qcd{strength}",
                _mean(fast, lambda s: s.accuracy),
                expected_accuracy_fsa(n, frame, strength),
                tol,
            )
        )
    return checks


# ----------------------------------------------------------------------
# invariants


@oracle(
    "invariant-sweep",
    "invariant",
    "strict engine invariants over the protocol × detector × policy grid",
)
def _invariant_sweep(ctx: OracleContext) -> list[Check]:
    sizes = (0, 1, 2, 17)
    protocols: list[Callable[[], object]] = [
        lambda: FramedSlottedAloha(16),
        BinaryTree,
        QueryTree,
        lambda: DynamicFSA(initial_frame_size=8),
    ]
    detectors: list[Callable[[], object]] = [
        lambda: QCDDetector(8),
        lambda: QCDDetector(2),
        lambda: CRCCDDetector(id_bits=ctx.timing.id_bits),
        lambda: IdealDetector(ctx.timing.id_bits),
    ]
    base = ctx.seed * 1_000_003 + _stable_hash("invariant-sweep")
    configs = 0
    invariants.reset()
    with invariants.checking(strict=False):
        for p_i, proto in enumerate(protocols):
            for d_i, det in enumerate(detectors):
                for n in sizes:
                    pop = TagPopulation(
                        n,
                        id_bits=ctx.timing.id_bits,
                        rng=make_rng(base + 1000 * p_i + 100 * d_i + n),
                    )
                    Reader(det(), ctx.timing).run_inventory(
                        pop.tags, proto()
                    )
                    configs += 1
        # The "lost" policy exercises the lost-ID bookkeeping paths.
        for n in sizes:
            pop = TagPopulation(
                n, id_bits=ctx.timing.id_bits, rng=make_rng(base + 9000 + n)
            )
            Reader(
                QCDDetector(2), ctx.timing, policy="lost"
            ).run_inventory(pop.tags, FramedSlottedAloha(16))
            configs += 1
    violations = len(invariants.STATE.violations)
    invariants.reset()
    return [
        check_exact("violations", violations, 0),
        check_exact(
            "configs_run", configs, len(protocols) * len(detectors) * len(sizes) + len(sizes)
        ),
    ]
