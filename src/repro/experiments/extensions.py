"""Beyond-the-paper studies, exposed as CLI experiments.

Each generator mirrors one of the ablation/extension benchmarks
(`benchmarks/test_ablation_*.py`, `benchmarks/test_ext_*.py`) in
row-dict form so ``python -m repro.experiments <id>`` can print it:

* ``gen2``       -- EI under realistic Gen2 link timing;
* ``energy``     -- per-inventory energy budget by scheme;
* ``estimators`` -- DFSA estimator race at n = 5000;
* ``noise``      -- bit-error robustness sweep;
* ``neighbor``   -- neighbor-discovery energy transfer (paper §VII);
* ``coverage``   -- sensor-field connectivity verification (paper §VII);
* ``missing``    -- manifest verification vs full inventory.
"""

from __future__ import annotations

import statistics

import numpy as np

from repro.analysis.ei import measured_ei
from repro.apps.missing_tags import detect_missing_tags
from repro.bits.channel import Channel
from repro.bits.rng import make_rng
from repro.core.crc_cd import CRCCDDetector
from repro.core.gen2_timing import Gen2TimingModel
from repro.core.qcd import QCDDetector
from repro.core.timing import TimingModel
from repro.protocols.estimators import (
    EomLeeEstimator,
    LowerBoundEstimator,
    MleEstimator,
    SchouteEstimator,
    VogtEstimator,
)
from repro.protocols.fsa import FramedSlottedAloha
from repro.sim.energy import inventory_energy
from repro.sim.batch import dfsa_fast_batch, fsa_fast_batch
from repro.sim.reader import Reader
from repro.tags.population import TagPopulation
from repro.wireless.coverage import SensorField, run_field_discovery
from repro.wireless.neighbor import run_discovery

__all__ = [
    "ext_gen2",
    "ext_energy",
    "ext_estimators",
    "ext_noise",
    "ext_neighbor",
    "ext_coverage",
    "ext_missing",
]

_SCHEMES = (
    ("CRC-CD", lambda: CRCCDDetector(id_bits=64)),
    ("QCD-8", lambda: QCDDetector(8)),
)


def _check_rounds(rounds: int) -> None:
    if rounds < 1:
        raise ValueError("rounds must be >= 1")


def _rngs(seed: int, rounds: int) -> list[np.random.Generator]:
    """Round ``r`` draws from ``default_rng(seed + r)``."""
    return [np.random.default_rng(seed + r) for r in range(rounds)]


def ext_gen2(rounds: int = 10, seed: int = 2010) -> list[dict[str, str]]:
    """EI of QCD-8 over CRC-CD under paper vs Gen2 timing (case II)."""
    _check_rounds(rounds)
    rows = []
    for label, timing in (
        ("paper (τ per bit)", TimingModel()),
        ("Gen2, same-commands ACK", Gen2TimingModel()),
        ("Gen2, no baseline ACK", Gen2TimingModel(ack_one_phase=False)),
    ):
        times = {}
        for name, factory in _SCHEMES:
            runs = fsa_fast_batch(
                500, 300, factory(), timing, _rngs(seed, rounds)
            ).runs
            times[name] = statistics.mean(s.total_time for s in runs)
        rows.append(
            {
                "timing model": label,
                "CRC-CD (µs)": f"{times['CRC-CD']:,.0f}",
                "QCD-8 (µs)": f"{times['QCD-8']:,.0f}",
                "EI": f"{measured_ei(times['CRC-CD'], times['QCD-8']):.3f}",
            }
        )
    return rows


def ext_energy(rounds: int = 5, seed: int = 2010) -> list[dict[str, str]]:
    """Energy budget per 150-tag inventory, by scheme."""
    _check_rounds(rounds)
    rows = []
    for name, factory in _SCHEMES:
        detector = factory()
        timing = TimingModel()
        pop = TagPopulation(150, id_bits=64, rng=make_rng(seed))
        result = Reader(detector, timing).run_inventory(
            pop.tags, FramedSlottedAloha(90)
        )
        e = inventory_energy(result.trace, detector, timing)
        rows.append(
            {
                "scheme": name,
                "tag tx (µJ)": f"{e.tag_transmit:.2f}",
                "tag compute (µJ)": f"{e.tag_compute:.4f}",
                "reader rx (µJ)": f"{e.reader_receive:,.0f}",
                "total (µJ)": f"{e.total:,.0f}",
            }
        )
    return rows


def ext_estimators(rounds: int = 5, seed: int = 2010) -> list[dict[str, str]]:
    """DFSA estimator race (n = 5000, initial frame 64, QCD-8)."""
    _check_rounds(rounds)
    estimators = (
        LowerBoundEstimator(),
        SchouteEstimator(),
        EomLeeEstimator(),
        VogtEstimator(),
        MleEstimator(),
    )
    rows = []
    for est in estimators:
        runs = dfsa_fast_batch(
            5000, 64, est, QCDDetector(8), TimingModel(), _rngs(seed, rounds)
        ).runs
        mean_slots = statistics.mean(s.true_counts.total for s in runs)
        rows.append(
            {
                "estimator": est.name,
                "slots": f"{mean_slots:,.0f}",
                "slots/tag": f"{mean_slots / 5000:.2f}",
            }
        )
    return rows


def ext_noise(rounds: int = 3, seed: int = 2010) -> list[dict[str, str]]:
    """Bit-error robustness sweep (FSA, 200 tags)."""
    _check_rounds(rounds)
    rows = []
    for ber in (0.0, 1e-3, 5e-3, 2e-2):
        cells: dict[str, str] = {"BER": f"{ber:g}"}
        for name, factory in _SCHEMES:
            falses = times = 0.0
            for r in range(rounds):
                pop = TagPopulation(200, id_bits=64, rng=make_rng(seed + r))
                channel = (
                    Channel(bit_error_rate=ber, rng=make_rng(seed + 100 + r))
                    if ber
                    else Channel()
                )
                res = Reader(factory(), channel=channel).run_inventory(
                    pop.tags, FramedSlottedAloha(120)
                )
                falses += res.stats.false_collisions
                times += res.stats.total_time
            cells[f"{name} false-coll"] = f"{falses / rounds:.1f}"
            cells[f"{name} time (µs)"] = f"{times / rounds:,.0f}"
        rows.append(cells)
    return rows


def ext_neighbor(rounds: int = 5, seed: int = 2010) -> list[dict[str, str]]:
    """Neighbor discovery in a 40-node clique: latency and energy."""
    _check_rounds(rounds)
    rows = []
    for name, factory in _SCHEMES:
        slots, energy = [], []
        for r in range(rounds):
            res = run_discovery(
                40, factory(), TimingModel(), np.random.default_rng(seed + r)
            )
            slots.append(res.slots)
            energy.append(res.listen_time_per_node)
        rows.append(
            {
                "framing": name,
                "slots to full discovery": f"{statistics.mean(slots):,.0f}",
                "listen µs/node": f"{statistics.mean(energy):,.0f}",
            }
        )
    return rows


def ext_coverage(rounds: int = 3, seed: int = 2010) -> list[dict[str, str]]:
    """Sensor-field link discovery (40 nodes, 50x50 m, 15 m range)."""
    _check_rounds(rounds)
    rows = []
    for name, factory in _SCHEMES:
        slots, listen = [], []
        for r in range(rounds):
            field = SensorField.random(
                40, 50.0, 50.0, 15.0, np.random.default_rng(seed + r)
            )
            res = run_field_discovery(
                field, factory(), TimingModel(), np.random.default_rng(seed + 50 + r)
            )
            slots.append(res.slots)
            listen.append(res.listen_time)
        rows.append(
            {
                "framing": name,
                "slots": f"{statistics.mean(slots):,.0f}",
                "listen time (µs)": f"{statistics.mean(listen):,.0f}",
            }
        )
    return rows


def ext_missing(rounds: int = 3, seed: int = 2010) -> list[dict[str, str]]:
    """Manifest verification (1000 tags, 20 missing) vs full inventory."""
    _check_rounds(rounds)
    rows = []
    for name, factory in _SCHEMES:
        airtimes, slot_counts = [], []
        for r in range(rounds):
            rng = np.random.default_rng(seed + r)
            expected = list(range(1000))
            missing = set(rng.choice(1000, size=20, replace=False).tolist())
            present = [i for i in expected if i not in missing]
            res = detect_missing_tags(
                expected,
                present,
                factory(),
                TimingModel(),
                np.random.default_rng(seed + 50 + r),
            )
            assert res.missing_ids == frozenset(missing)
            airtimes.append(res.airtime)
            slot_counts.append(res.slots)
        rows.append(
            {
                "framing": name,
                "slots": f"{statistics.mean(slot_counts):,.0f}",
                "airtime (µs)": f"{statistics.mean(airtimes):,.0f}",
            }
        )
    inv = fsa_fast_batch(
        1000, 600, QCDDetector(8), TimingModel(), [np.random.default_rng(seed)]
    ).runs[0]
    rows.append(
        {
            "framing": "(full QCD-8 inventory)",
            "slots": f"{inv.true_counts.total:,}",
            "airtime (µs)": f"{inv.total_time:,.0f}",
        }
    )
    return rows
