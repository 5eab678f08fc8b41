"""Unit tests for the oracle registry and execution context."""

from __future__ import annotations

import pytest

from repro.core.timing import TimingModel
from repro.experiments.parallel import make_executor
from repro.protocols.fsa import FramedSlottedAloha
from repro.core.qcd import QCDDetector
from repro.verify.comparisons import check_exact
from repro.verify.oracles import (
    ORACLES,
    Oracle,
    OracleContext,
    OracleReport,
    all_oracles,
    get,
    oracle,
)

EXPECTED = {
    "fsa-kernel-vs-reader": "kernel-reader",
    "bt-kernel-vs-reader": "kernel-reader",
    "batch-reader": "reader-reader",
    "fsa-frame-vs-theory": "sim-theory",
    "bt-slots-vs-theory": "sim-theory",
    "fsa-ei-vs-theory": "sim-theory",
    "bt-ei-vs-theory": "sim-theory",
    "qcd-accuracy-vs-theory": "sim-theory",
    "invariant-sweep": "invariant",
}


def make_context(rounds=3, seed=2010):
    return OracleContext(
        rounds=rounds,
        seed=seed,
        timing=TimingModel(),
        executor=make_executor(1),
    )


class TestRegistry:
    def test_issue_coverage(self):
        """The registered floor: two kernel-reader pairs, one
        reader-reader pair, at least three sim-theory pairs, one
        invariant sweep."""
        kinds = {name: o.kind for name, o in ORACLES.items()}
        assert kinds == EXPECTED
        by_kind = list(kinds.values())
        assert by_kind.count("kernel-reader") == 2
        assert by_kind.count("reader-reader") == 1
        assert by_kind.count("sim-theory") >= 3
        assert by_kind.count("invariant") == 1

    def test_all_oracles_in_registration_order(self):
        assert [o.name for o in all_oracles()] == list(EXPECTED)

    def test_get_known(self):
        o = get("invariant-sweep")
        assert isinstance(o, Oracle) and o.kind == "invariant"

    def test_get_unknown_names_the_registry(self):
        with pytest.raises(KeyError, match="fsa-kernel-vs-reader"):
            get("no-such-oracle")

    def test_duplicate_registration_rejected(self):
        with pytest.raises(ValueError, match="already registered"):

            @oracle("invariant-sweep", "invariant", "dup")
            def dup(ctx):  # pragma: no cover - never runs
                return ()

    def test_descriptions_nonempty(self):
        assert all(o.description for o in all_oracles())


class TestOracleReport:
    def test_passed_aggregates_checks(self):
        ok = check_exact("a", 1, 1)
        bad = check_exact("b", 1, 2)
        assert OracleReport("x", "invariant", (ok,)).passed
        assert not OracleReport("x", "invariant", (ok, bad)).passed

    def test_dict_roundtrip(self):
        rep = OracleReport(
            "x", "sim-theory", (check_exact("a", 1, 1), check_exact("b", 2, 2))
        )
        assert OracleReport.from_dict(rep.to_dict()) == rep


class TestOracleContext:
    def test_kernel_rounds_deterministic(self):
        a = make_context().kernel_rounds("fsa", "qcd-8", 40, 24)
        b = make_context().kernel_rounds("fsa", "qcd-8", 40, 24)
        assert [s.total_time for s in a] == [s.total_time for s in b]
        assert len(a) == 3

    def test_kernel_rounds_scheme_enters_stream(self):
        a = make_context().kernel_rounds("fsa", "qcd-8", 40, 24)
        b = make_context().kernel_rounds("fsa", "qcd-16", 40, 24)
        assert [s.true_counts.total for s in a] != [
            s.true_counts.total for s in b
        ]

    def test_reader_rounds_deterministic(self):
        ctx = make_context(rounds=2)
        kw = dict(
            protocol_factory=lambda: FramedSlottedAloha(24),
            detector_factory=lambda: QCDDetector(8),
            n_tags=15,
            salt="unit",
        )
        a = ctx.reader_rounds(**kw)
        b = ctx.reader_rounds(**kw)
        assert [s.total_time for s in a] == [s.total_time for s in b]

    def test_reader_rounds_salt_changes_stream(self):
        ctx = make_context(rounds=2)

        def run(salt):
            return ctx.reader_rounds(
                lambda: FramedSlottedAloha(24),
                lambda: QCDDetector(8),
                15,
                salt,
            )

        assert [s.total_time for s in run("a")] != [
            s.total_time for s in run("b")
        ]


class TestInvariantSweep:
    def test_sweep_is_clean(self):
        """The full protocol × detector × policy grid under strict-off
        collection: zero violations, every config executed."""
        report = get("invariant-sweep").run(make_context(rounds=2))
        assert report.passed
        by_name = {c.name: c for c in report.checks}
        assert by_name["violations"].observed == 0.0
        assert by_name["configs_run"].passed
