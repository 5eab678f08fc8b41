"""Unit tests for the engine invariant checker."""

from __future__ import annotations

import subprocess
import sys
from dataclasses import dataclass

import pytest

from repro import obs
from repro.bits.bitvec import BitVector
from repro.core.collision_function import IdentityFunction
from repro.core.crc_cd import CRCCDDetector
from repro.core.detector import SlotType
from repro.core.qcd import QCDDetector
from repro.core.timing import TimingModel
from repro.verify import invariants
from repro.verify.invariants import (
    InvariantViolation,
    Violation,
    check_inventory,
    check_slot,
    checking,
)


@pytest.fixture(autouse=True)
def clean_state():
    invariants.disable()
    invariants.reset()
    obs.disable()
    obs.reset()
    yield
    invariants.disable()
    invariants.reset()
    obs.disable()
    obs.reset()


@dataclass
class FakeRecord:
    """Duck-typed stand-in for SlotRecord (the checker never imports
    repro.sim, so any record-shaped object works)."""

    index: int = 0
    n_responders: int = 1
    true_type: SlotType = SlotType.SINGLE
    detected_type: SlotType = SlotType.SINGLE
    duration: float = 0.0
    end_time: float = 0.0


def good_record(detector, timing, **overrides) -> FakeRecord:
    rec = FakeRecord()
    rec.duration = timing.slot_duration(detector, rec.detected_type)
    rec.end_time = rec.duration
    for k, v in overrides.items():
        setattr(rec, k, v)
    return rec


class TestSwitchboard:
    def test_off_by_default(self):
        assert not invariants.is_enabled()

    def test_enable_disable(self):
        invariants.enable(strict=False)
        assert invariants.is_enabled()
        assert not invariants.STATE.strict
        invariants.disable()
        assert not invariants.is_enabled()

    def test_reset_clears_log_only(self):
        invariants.enable(strict=False)
        invariants._report("x", "boom")
        assert invariants.STATE.violations
        invariants.reset()
        assert invariants.STATE.violations == []
        assert invariants.is_enabled()

    def test_checking_restores_prior_state(self):
        invariants.enable(strict=False)
        with checking(strict=True):
            assert invariants.STATE.strict
        assert invariants.is_enabled()
        assert not invariants.STATE.strict

    def test_checking_restores_on_exception(self):
        with pytest.raises(RuntimeError):
            with checking():
                raise RuntimeError("boom")
        assert not invariants.is_enabled()

    def test_env_flag_strict(self):
        out = subprocess.run(
            [
                sys.executable,
                "-c",
                "from repro.verify.invariants import STATE; "
                "print(STATE.enabled, STATE.strict)",
            ],
            capture_output=True,
            text=True,
            env={"PYTHONPATH": "src", "REPRO_VERIFY_INVARIANTS": "1"},
            cwd=str(__import__("pathlib").Path(__file__).parents[2]),
        )
        assert out.stdout.split() == ["True", "True"]

    def test_env_flag_collect(self):
        out = subprocess.run(
            [
                sys.executable,
                "-c",
                "from repro.verify.invariants import STATE; "
                "print(STATE.enabled, STATE.strict)",
            ],
            capture_output=True,
            text=True,
            env={"PYTHONPATH": "src", "REPRO_VERIFY_INVARIANTS": "collect"},
            cwd=str(__import__("pathlib").Path(__file__).parents[2]),
        )
        assert out.stdout.split() == ["True", "False"]


class TestModes:
    def test_strict_raises(self):
        invariants.enable(strict=True)
        with pytest.raises(InvariantViolation, match="boom"):
            invariants._report("test", "boom")

    def test_collect_records(self):
        invariants.enable(strict=False)
        invariants._report("test", "boom")
        assert invariants.STATE.violations == [Violation("test", "boom")]

    def test_obs_counter_incremented(self):
        from repro.obs import instruments as inst

        obs.enable()
        invariants.enable(strict=False)
        invariants._report("slot_duration", "off by one")
        invariants._report("slot_duration", "off by two")
        counter = obs.STATE.registry.get(inst.INVARIANT_VIOLATIONS)
        assert counter.labels(check="slot_duration").value == 2

    def test_no_obs_write_when_obs_disabled(self):
        from repro.obs import instruments as inst

        invariants.enable(strict=False)
        invariants._report("test", "boom")
        assert obs.STATE.registry.get(inst.INVARIANT_VIOLATIONS) is None


class TestCheckSlot:
    def setup_method(self):
        self.detector = QCDDetector(8)
        self.timing = TimingModel()

    def test_clean_slot(self):
        invariants.enable(strict=True)
        rec = good_record(self.detector, self.timing)
        check_slot(rec, self.detector, self.timing, None)
        assert invariants.STATE.violations == []

    def test_true_type_mismatch(self):
        invariants.enable(strict=False)
        rec = good_record(
            self.detector, self.timing, n_responders=3, true_type=SlotType.SINGLE
        )
        check_slot(rec, self.detector, self.timing, None)
        assert [v.check for v in invariants.STATE.violations] == [
            "slot_true_type"
        ]

    def test_duration_mismatch(self):
        invariants.enable(strict=False)
        rec = good_record(self.detector, self.timing, duration=1.0)
        check_slot(rec, self.detector, self.timing, None)
        assert [v.check for v in invariants.STATE.violations] == [
            "slot_duration"
        ]

    def test_inconsistent_qcd_preamble(self):
        """A single verdict over an all-ones signal: r = c = 1^8 fails
        c == f(r), the checker must flag it."""
        invariants.enable(strict=False)
        rec = good_record(self.detector, self.timing)
        check_slot(rec, self.detector, self.timing, 0xFFFF)
        assert [v.check for v in invariants.STATE.violations] == [
            "qcd_preamble"
        ]

    def test_consistent_qcd_preamble_clean(self):
        invariants.enable(strict=True)
        rec = good_record(self.detector, self.timing)
        value = self.detector.codec.encode(BitVector(0x42, 8)).to_int()
        assert value == 0x42BD
        check_slot(rec, self.detector, self.timing, value)
        assert invariants.STATE.violations == []

    def test_zero_value_skips_preamble_check(self):
        """An all-zero signal carries no preamble to check (QCD reads it
        as idle); only the other invariants apply."""
        invariants.enable(strict=True)
        rec = good_record(self.detector, self.timing)
        check_slot(rec, self.detector, self.timing, 0)
        assert invariants.STATE.violations == []

    def test_collided_verdict_skips_preamble_check(self):
        invariants.enable(strict=True)
        rec = good_record(
            self.detector,
            self.timing,
            n_responders=2,
            true_type=SlotType.COLLIDED,
            detected_type=SlotType.COLLIDED,
        )
        rec.duration = self.timing.slot_duration(
            self.detector, SlotType.COLLIDED
        )
        check_slot(rec, self.detector, self.timing, 0xFFFF)
        assert invariants.STATE.violations == []

    def test_qcd_ablation_function_checked_with_its_own_f(self):
        """Under the identity function ``c == f(r)`` means ``c == r``: the
        checker rebuilds the preamble and applies the detector's own
        function, so 0x4242 passes and the complement layout fails."""
        detector = QCDDetector(8, IdentityFunction())
        invariants.enable(strict=False)
        rec = good_record(detector, self.timing)
        check_slot(rec, detector, self.timing, 0x4242)
        assert invariants.STATE.violations == []
        check_slot(rec, detector, self.timing, 0x42BD)
        assert [v.check for v in invariants.STATE.violations] == [
            "qcd_preamble"
        ]

    def test_wide_qcd_preamble_rebuilt_at_full_width(self):
        """QCD-40's 80-bit preamble is wider than a machine word."""
        detector = QCDDetector(40)
        invariants.enable(strict=False)
        rec = good_record(detector, self.timing)
        r = 0x12_3456_789A
        check_slot(rec, detector, self.timing, r << 40 | r ^ (1 << 40) - 1)
        assert invariants.STATE.violations == []
        check_slot(rec, detector, self.timing, (1 << 80) - 1)
        assert [v.check for v in invariants.STATE.violations] == [
            "qcd_preamble"
        ]

    def test_crc_detector_has_no_preamble_check(self):
        detector = CRCCDDetector(id_bits=64)
        invariants.enable(strict=True)
        rec = good_record(detector, self.timing)
        check_slot(rec, detector, self.timing, (1 << 96) - 1)
        assert invariants.STATE.violations == []


class TestCheckInventory:
    def setup_method(self):
        self.detector = QCDDetector(8)
        self.timing = TimingModel()

    def _trace(self, n=3):
        out = []
        t = 0.0
        for i in range(n):
            rec = good_record(self.detector, self.timing, index=i)
            t += rec.duration
            rec.end_time = t
            out.append(rec)
        return out

    def _run(self, trace=None, pop=(1, 2, 3), ident=(1, 2, 3), lost=(), **kw):
        invariants.enable(strict=False)
        check_inventory(
            self._trace() if trace is None else trace,
            list(pop),
            list(ident),
            list(lost),
            **kw,
        )
        return [v.check for v in invariants.STATE.violations]

    def test_clean(self):
        assert self._run(complete=True) == []

    def test_duplicate_identified(self):
        assert "identified_unique" in self._run(ident=(1, 1, 2))

    def test_identified_outside_population(self):
        assert "identified_subset" in self._run(ident=(1, 2, 99))

    def test_lost_and_identified_overlap(self):
        assert "lost_disjoint" in self._run(ident=(1, 2), lost=(2,))

    def test_incomplete_inventory_flagged_only_when_complete(self):
        assert self._run(ident=(1, 2)) == []
        assert "inventory_complete" in self._run(ident=(1, 2), complete=True)

    def test_negative_duration(self):
        trace = self._trace()
        trace[1].duration = -1.0
        assert "clock_monotone" in self._run(trace=trace)

    def test_non_monotone_clock(self):
        trace = self._trace()
        trace[2].end_time = 0.0
        assert "clock_monotone" in self._run(trace=trace)

    def test_partition_violation(self):
        trace = self._trace()
        trace[0].true_type = None  # not a known slot type
        assert "slot_partition" in self._run(trace=trace)


class TestEndToEnd:
    def test_reader_run_is_clean_under_strict_checks(self):
        from repro.bits.rng import make_rng
        from repro.protocols.fsa import FramedSlottedAloha
        from repro.sim.reader import Reader
        from repro.tags.population import TagPopulation

        pop = TagPopulation(20, id_bits=64, rng=make_rng(9))
        with checking(strict=True) as state:
            Reader(QCDDetector(8)).run_inventory(
                pop.tags, FramedSlottedAloha(12)
            )
        assert state.violations == []

    def test_engine_run_is_clean_under_strict_checks(self):
        from repro.bits.rng import make_rng
        from repro.protocols.fsa import FramedSlottedAloha
        from repro.sim.engine import MobileInventoryEngine
        from repro.sim.reader import Reader
        from repro.tags.mobility import poisson_arrivals
        from repro.tags.population import TagPopulation

        pop = TagPopulation(10, id_bits=64, rng=make_rng(4))
        movers = TagPopulation(8, id_bits=64, rng=make_rng(6))
        schedule = poisson_arrivals(
            list(movers.tags), rate=0.002, dwell_mean=4000.0, rng=make_rng(5)
        )
        with checking(strict=True) as state:
            MobileInventoryEngine(Reader(QCDDetector(8))).run(
                FramedSlottedAloha(16), schedule, initial_tags=pop.tags
            )
        assert state.violations == []


class TestReaderHooks:
    """Where the live Reader calls the per-slot checker."""

    @staticmethod
    def _spy(monkeypatch):
        from repro.sim import reader as reader_module

        calls = {"_run_frame": 0, "_run_slot": 0, "check_slot": []}
        for name in ("_run_frame", "_run_slot"):
            real = getattr(reader_module.Reader, name)

            def counted(self, *args, _real=real, _name=name, **kwargs):
                calls[_name] += 1
                return _real(self, *args, **kwargs)

            monkeypatch.setattr(reader_module.Reader, name, counted)
        real_check = reader_module._check_slot

        def checked(record, detector, timing, value):
            calls["check_slot"].append((record, value))
            return real_check(record, detector, timing, value)

        monkeypatch.setattr(reader_module, "_check_slot", checked)
        return calls

    @pytest.mark.parametrize("with_obs", [False, True])
    def test_framed_inventory_checks_every_slot_in_run_frame(
        self, monkeypatch, with_obs
    ):
        """Invariant checking (with or without obs) keeps a framed FSA
        inventory on the frame-batched path, which checks every record
        against its packed superposition."""
        from repro.bits.rng import make_rng
        from repro.protocols.fsa import FramedSlottedAloha
        from repro.sim.reader import Reader
        from repro.tags.population import TagPopulation

        calls = self._spy(monkeypatch)
        pop = TagPopulation(40, id_bits=64, rng=make_rng(21))
        if with_obs:
            obs.enable()
        with checking(strict=True) as state:
            result = Reader(QCDDetector(8)).run_inventory(
                pop.tags, FramedSlottedAloha(16)
            )
        assert state.violations == []
        assert calls["_run_frame"] == result.stats.frames
        assert calls["_run_slot"] == 0
        checked = calls["check_slot"]
        assert [record for record, _ in checked] == result.trace
        for record, value in checked:
            assert (value is None) is (record.n_responders == 0)
            if record.n_responders:
                assert 0 < value < 1 << 16

    def test_frame_check_flags_a_misread_slot(self, monkeypatch):
        """A detector that calls every occupied slot single trips the
        preamble check inside ``_run_frame`` on the first collision."""
        from repro.bits.rng import make_rng
        from repro.protocols.fsa import FramedSlottedAloha
        from repro.sim.reader import Reader
        from repro.tags.population import TagPopulation

        calls = self._spy(monkeypatch)
        detector = QCDDetector(8)
        monkeypatch.setattr(
            detector,
            "classify_packed_many",
            lambda values, counts: (counts > 0).astype(int),
        )
        pop = TagPopulation(40, id_bits=64, rng=make_rng(21))
        with checking(strict=False) as state:
            Reader(detector).run_inventory(pop.tags, FramedSlottedAloha(16))
        assert calls["_run_slot"] == 0
        assert "qcd_preamble" in {v.check for v in state.violations}
