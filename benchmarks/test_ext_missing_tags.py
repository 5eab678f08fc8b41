"""Extension bench -- missing-tag verification against a manifest.

Verification never reads an ID, so it is both much cheaper than an
inventory and a pure-overhead workload where QCD's 16-bit slots realize
their full 6x factor.  The bench measures cost vs manifest size and the
QCD/CRC airtime gap.
"""

from __future__ import annotations

import numpy as np
import pytest

from bench_util import show
from repro.apps.missing_tags import detect_missing_tags
from repro.core.crc_cd import CRCCDDetector
from repro.core.qcd import QCDDetector
from repro.core.timing import TimingModel
from repro.sim.batch import fsa_fast_batch


def verify(n, n_missing, detector, seed=3):
    rng = np.random.default_rng(seed)
    expected = list(range(n))
    missing = set(rng.choice(n, size=n_missing, replace=False).tolist())
    present = [i for i in expected if i not in missing]
    result = detect_missing_tags(
        expected, present, detector, TimingModel(), np.random.default_rng(seed + 1)
    )
    assert result.missing_ids == frozenset(missing)
    return result


@pytest.mark.benchmark(group="missing-tags")
def test_verification_vs_inventory(benchmark):
    n = 2000

    def compute():
        ver = verify(n, 50, QCDDetector(8))
        inv = fsa_fast_batch(
            n,
            int(n * 0.6),
            QCDDetector(8),
            TimingModel(),
            [np.random.default_rng(5)],
        ).runs[0]
        return ver, inv

    ver, inv = benchmark.pedantic(compute, rounds=1, iterations=1)
    show(
        f"Verify a {n}-tag manifest (50 missing) vs read it",
        [
            {
                "task": "missing-tag verification",
                "slots": f"{ver.slots:,}",
                "airtime (µs)": f"{ver.airtime:,.0f}",
            },
            {
                "task": "full inventory",
                "slots": f"{inv.true_counts.total:,}",
                "airtime (µs)": f"{inv.total_time:,.0f}",
            },
        ],
    )
    # ~2.6 presence slots of 16 bits per tag vs ~4.8 mixed slots with an
    # 80-bit single per tag: about a 3x airtime saving.
    assert ver.airtime < 0.35 * inv.total_time


@pytest.mark.benchmark(group="missing-tags")
def test_framing_gap(benchmark):
    def compute():
        qcd = verify(1000, 20, QCDDetector(8), seed=11)
        crc = verify(1000, 20, CRCCDDetector(id_bits=64), seed=11)
        return qcd, crc

    qcd, crc = benchmark.pedantic(compute, rounds=1, iterations=1)
    show(
        "Verification airtime by framing (1000 tags, 20 missing)",
        [
            {"framing": "QCD-8", "airtime (µs)": f"{qcd.airtime:,.0f}"},
            {"framing": "CRC-CD", "airtime (µs)": f"{crc.airtime:,.0f}"},
        ],
    )
    assert crc.airtime / qcd.airtime == pytest.approx(6.0, rel=0.02)


@pytest.mark.benchmark(group="missing-tags")
def test_cost_scales_gently(benchmark):
    def compute():
        return {
            n: verify(n, max(1, n // 50), QCDDetector(8), seed=n).slots
            for n in (250, 1000, 4000)
        }

    slots = benchmark.pedantic(compute, rounds=1, iterations=1)
    show(
        "Verification slots vs manifest size",
        [
            {"manifest": str(n), "slots": f"{s:,}", "slots/tag": f"{s / n:.2f}"}
            for n, s in slots.items()
        ],
    )
    # Near-linear: slots/tag stays in a narrow band as n grows 16x.
    ratios = [s / n for n, s in slots.items()]
    assert max(ratios) / min(ratios) < 1.5


@pytest.mark.benchmark(group="missing-tags")
def test_alien_certification(benchmark):
    """The dual problem: certify that *nothing extra* is on the pallet.
    Cost is logarithmic in the accepted risk and independent of whether
    aliens exist; detection of real aliens is geometric."""
    from repro.apps.unknown_tags import detect_unknown_tags, rounds_for_confidence

    def compute():
        clean = detect_unknown_tags(
            1000,
            0,
            QCDDetector(8),
            TimingModel(),
            np.random.default_rng(21),
            mode="certify",
            confidence=0.999,
        )
        dirty = detect_unknown_tags(
            1000,
            3,
            QCDDetector(8),
            TimingModel(),
            np.random.default_rng(22),
            mode="detect",
        )
        return clean, dirty

    clean, dirty = benchmark.pedantic(compute, rounds=1, iterations=1)
    show(
        "Alien-tag verification (1000-tag manifest)",
        [
            {
                "scenario": "certify clean @ 99.9%",
                "rounds": str(clean.rounds),
                "airtime (µs)": f"{clean.airtime:,.0f}",
                "verdict": f"clean ({clean.clean_confidence:.3%})",
            },
            {
                "scenario": "3 aliens present",
                "rounds": str(dirty.rounds),
                "airtime (µs)": f"{dirty.airtime:,.0f}",
                "verdict": "alien detected" if dirty.alien_detected else "missed",
            },
        ],
    )
    assert not clean.alien_detected
    assert clean.rounds == rounds_for_confidence(0.999)
    assert dirty.alien_detected
    assert dirty.rounds < clean.rounds
