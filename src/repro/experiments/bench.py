"""``repro-bench`` -- kernel throughput measurement and regression gate.

Measures wall-clock per Monte-Carlo round for the kernels
(:mod:`repro.sim.batch`) and the frozen pre-batching reference kernels
(``benchmarks/_reference_kernels.py``, loaded from ``--frozen-dir``), and
one exact inventory three ways: on the frozen per-slot object Reader
(``benchmarks/_reference_reader.py``, also from ``--frozen-dir``), on
the live Reader slot by slot (the protocol's frame partition withheld),
and on the live Reader batching whole frames.  It writes a
machine-readable ``BENCH_kernels.json`` (and, with ``--reader-out``, a
reader-only document matching ``benchmarks/BENCH_reader.json``).

Because absolute timings are machine-bound, the regression gate compares
*within-run speedup ratios* (kernels over the frozen reference measured
on the same machine, per-slot/frame-batched over the object Reader),
which transfer across machines::

    repro-bench --quick --out BENCH_kernels.json \\
                --baseline benchmarks/BENCH_kernels.json \\
                --frozen-dir benchmarks \\
                --reader-out BENCH_reader.json \\
                --reader-baseline benchmarks/BENCH_reader.json

fails (exit 1) when a kernel drops below the frozen reference's
throughput or when any speedup ratio regresses more than ``--tolerance``
(default 25%) against the committed baseline.  ``--baseline`` needs the
frozen kernels and ``--reader-baseline`` the frozen Reader: without
``_reference_kernels.py`` or ``_reference_reader.py`` in ``--frozen-dir``
the run stops with a usage error instead of gating nothing.

The committed baseline is regenerated after an *intentional* perf change
with the same command CI runs (see ``.github/workflows/ci.yml``).
"""

from __future__ import annotations

import argparse
import importlib
import json
import sys
import time
from pathlib import Path
from typing import Callable, Sequence

import numpy as np

from repro.core.qcd import QCDDetector
from repro.core.timing import TimingModel
from repro.protocols.estimators import SchouteEstimator
from repro.protocols.fsa import FramedSlottedAloha
from repro.sim.batch import bt_fast_batch, dfsa_fast_batch, fsa_fast_batch
from repro.sim.reader import Reader
from repro.tags.population import TagPopulation
from repro.bits.rng import make_rng

__all__ = [
    "main",
    "build_parser",
    "run_bench",
    "check_against_baseline",
    "check_reader_against_baseline",
]

#: Case IV of the paper's evaluation (50 000 tags), the ISSUE's reference
#: point; ``--quick`` scales it down with the same n/F ratio for CI.
FULL = {"n_tags": 50_000, "frame_size": 30_000, "rounds": 10, "repeats": 3,
        "reader_tags": 1_000}
QUICK = {"n_tags": 4_000, "frame_size": 2_400, "rounds": 6, "repeats": 2,
         "reader_tags": 300}


def _time(fn: Callable[[], object], repeats: int) -> float:
    """Best-of-``repeats`` wall time in seconds (min rejects noise)."""
    best = float("inf")
    for _ in range(repeats):
        t0 = time.perf_counter()
        fn()
        best = min(best, time.perf_counter() - t0)
    return best


def _children(salt: int, rounds: int):
    return np.random.SeedSequence([20_100, salt]).spawn(rounds)


def _gens(kids):
    return [np.random.Generator(np.random.PCG64(c)) for c in kids]


def _load_frozen(frozen_dir: str | None, name: str = "_reference_kernels"):
    """A vendored frozen reference module, or None outside a checkout."""
    if not frozen_dir:
        return None
    path = Path(frozen_dir)
    if not (path / f"{name}.py").is_file():
        return None
    sys.path.insert(0, str(path))
    try:
        return importlib.import_module(name)
    finally:
        sys.path.remove(str(path))


def run_bench(
    n_tags: int,
    frame_size: int,
    rounds: int,
    repeats: int,
    reader_tags: int,
    frozen=None,
    frozen_reader=None,
) -> dict:
    """Measure every engine and return the report document (ratios over
    a missing ``frozen`` / ``frozen_reader`` reference are left out)."""
    timing = TimingModel()
    det = QCDDetector(8)
    kernels: dict[str, dict[str, float]] = {}

    variants: dict[str, dict[str, Callable[[], object]]] = {
        "fsa": {
            "batched": lambda: fsa_fast_batch(
                n_tags, frame_size, det, timing, _children(1, rounds)
            ),
        },
        "dfsa": {
            "batched": lambda: dfsa_fast_batch(
                n_tags, frame_size, SchouteEstimator(), det, timing,
                _children(2, rounds), max_frame_size=1 << 17,
            ),
        },
        "bt": {
            "batched": lambda: bt_fast_batch(
                n_tags, det, timing, _children(3, rounds)
            ),
        },
    }
    if frozen is not None:
        variants["fsa"]["frozen"] = lambda: [
            frozen.fsa_fast(n_tags, frame_size, det, timing, g)
            for g in _gens(_children(1, rounds))
        ]
        variants["dfsa"]["frozen"] = lambda: [
            frozen.dfsa_fast(
                n_tags, frame_size, SchouteEstimator(), det, timing, g,
                max_frame_size=1 << 17,
            )
            for g in _gens(_children(2, rounds))
        ]
        # The frozen BT walker is ~10x slower; one round is plenty.
        variants["bt"]["frozen"] = lambda: [
            frozen.bt_fast(n_tags, det, timing, g)
            for g in _gens(_children(3, 1))
        ]

    for proto, engines in variants.items():
        # Interleave the engines within each repeat (and take at least
        # best-of-5): the gate compares ratios, and alternating keeps a
        # sustained noise spike from biasing one engine only.
        best = {name: float("inf") for name in engines}
        for _ in range(max(repeats, 5)):
            for name, fn in engines.items():
                best[name] = min(best[name], _time(fn, 1))
        entry: dict[str, float] = {}
        for engine in engines:
            n_r = 1 if engine == "frozen" and proto == "bt" else rounds
            entry[f"{engine}_ms_per_round"] = best[engine] / n_r * 1_000.0
        if "frozen_ms_per_round" in entry:
            entry["batch_speedup_vs_frozen"] = (
                entry["frozen_ms_per_round"] / entry["batched_ms_per_round"]
            )
        kernels[proto] = entry

    def reader_once(tier: str) -> float:
        # A fresh population per run is required (identification is
        # destructive), but spawning its per-tag RNG streams is setup,
        # not Reader work -- keep it outside the timed window so the
        # tier ratios measure the inventory loop itself.
        pop = TagPopulation(
            reader_tags, id_bits=timing.id_bits, rng=make_rng(99)
        )
        protocol = FramedSlottedAloha(max(1, reader_tags))
        if tier == "packed":
            # No frame to batch: the live Reader runs slot by slot.
            protocol.frame_partition = lambda: None
        reader = (frozen_reader.Reader if tier == "object" else Reader)(
            QCDDetector(8), timing
        )
        t0 = time.perf_counter()
        reader.run_inventory(pop.tags, protocol)
        return time.perf_counter() - t0

    # Interleave the reader tiers within each repeat (and take at least
    # best-of-5): the ratios are what the gate compares, and alternating
    # keeps a sustained noise spike from biasing one tier.
    tiers = ("packed", "batched")
    if frozen_reader is not None:
        tiers = ("object", *tiers)
    best = dict.fromkeys(tiers, float("inf"))
    for _ in range(max(repeats, 5)):
        for tier in tiers:
            best[tier] = min(best[tier], reader_once(tier))
    reader_entry = {f"{tier}_ms": t * 1_000.0 for tier, t in best.items()}
    reader_entry["batched_speedup_vs_packed"] = best["packed"] / best["batched"]
    if frozen_reader is not None:
        reader_entry["packed_speedup"] = best["object"] / best["packed"]
        reader_entry["batched_speedup"] = best["object"] / best["batched"]
    return {
        "config": {
            "n_tags": n_tags,
            "frame_size": frame_size,
            "rounds": rounds,
            "repeats": repeats,
            "reader_tags": reader_tags,
            "scheme": "qcd-8",
            "frozen_measured": frozen is not None,
        },
        "kernels": kernels,
        "reader": reader_entry,
    }


def check_against_baseline(
    report: dict, baseline: dict, tolerance: float
) -> list[str]:
    """Ratio-based regression findings (empty when the gate passes)."""
    problems: list[str] = []
    for proto, entry in report["kernels"].items():
        ratio = entry["batch_speedup_vs_frozen"]
        if ratio < 1.0:
            problems.append(
                f"{proto}: batched kernel is slower than the frozen "
                f"reference (speedup {ratio:.2f}x < 1.0x)"
            )
        base = baseline.get("kernels", {}).get(proto, {}).get(
            "batch_speedup_vs_frozen"
        )
        if base is not None and ratio < base * (1.0 - tolerance):
            problems.append(
                f"{proto}: batch speedup regressed {ratio:.2f}x vs "
                f"baseline {base:.2f}x (> {tolerance:.0%} drop)"
            )
    problems.extend(
        check_reader_against_baseline(report, baseline, tolerance)
    )
    cur_b = report["reader"].get("batched_speedup")
    if cur_b is not None and cur_b < 1.0:
        problems.append(
            "reader: frame-batched path is slower than the object path "
            f"(speedup {cur_b:.2f}x < 1.0x)"
        )
    return problems


def check_reader_against_baseline(
    report: dict, baseline: dict, tolerance: float
) -> list[str]:
    """Reader-tier ratio regressions vs a baseline document.

    Accepts either the full kernel report or the reader-only
    ``BENCH_reader.json`` document as ``baseline`` -- both carry a
    ``"reader"`` mapping.  Ratios missing on either side are skipped, so
    a pre-frame-batching baseline still gates the per-slot ratio.
    """
    problems: list[str] = []
    base_reader = baseline.get("reader", {})
    reader = report["reader"]
    for key, label in (
        ("packed_speedup", "packed"),
        ("batched_speedup", "frame-batched"),
    ):
        base = base_reader.get(key)
        cur = reader.get(key)
        if base is not None and cur is not None and cur < base * (
            1.0 - tolerance
        ):
            problems.append(
                f"reader: {label} speedup regressed {cur:.2f}x vs "
                f"baseline {base:.2f}x (> {tolerance:.0%} drop)"
            )
    return problems


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro-bench",
        description=(
            "Measure the batched kernels against the frozen reference "
            "kernels and the Reader against the frozen object Reader; "
            "gate CI on speedup ratios."
        ),
    )
    parser.add_argument(
        "--quick",
        action="store_true",
        help="CI smoke sizes (scaled-down case IV, same n/F ratio)",
    )
    parser.add_argument("--n-tags", type=int, default=None)
    parser.add_argument("--frame-size", type=int, default=None)
    parser.add_argument(
        "--rounds", type=int, default=None, help="rounds per measurement"
    )
    parser.add_argument(
        "--repeats",
        type=int,
        default=None,
        help="measurements per engine (best-of)",
    )
    parser.add_argument("--reader-tags", type=int, default=None)
    parser.add_argument(
        "--out",
        default="BENCH_kernels.json",
        metavar="FILE",
        help="report path (default BENCH_kernels.json)",
    )
    parser.add_argument(
        "--baseline",
        default=None,
        metavar="FILE",
        help="committed baseline to gate speedup ratios against",
    )
    parser.add_argument(
        "--reader-out",
        default=None,
        metavar="FILE",
        help=(
            "also write a reader-only document (config + reader tiers), "
            "the shape committed as benchmarks/BENCH_reader.json"
        ),
    )
    parser.add_argument(
        "--reader-baseline",
        default=None,
        metavar="FILE",
        help=(
            "committed reader baseline (BENCH_reader.json) to gate the "
            "reader speedup ratios against"
        ),
    )
    parser.add_argument(
        "--tolerance",
        type=float,
        default=0.25,
        help="allowed fractional ratio regression vs baseline (default 0.25)",
    )
    parser.add_argument(
        "--frozen-dir",
        default="benchmarks",
        metavar="DIR",
        help=(
            "directory holding _reference_kernels.py and "
            "_reference_reader.py (the frozen kernels and object Reader); "
            "required with --baseline / --reader-baseline"
        ),
    )
    return parser


def main(argv: Sequence[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    params = dict(QUICK if args.quick else FULL)
    for key in params:
        override = getattr(args, key)
        if override is not None:
            params[key] = override
    frozen = _load_frozen(args.frozen_dir)
    frozen_reader = _load_frozen(args.frozen_dir, "_reference_reader")
    if args.baseline and frozen is None:
        parser.error(
            f"--baseline gates the speedup over the frozen reference "
            f"kernels, but --frozen-dir {args.frozen_dir!r} holds no "
            f"_reference_kernels.py"
        )
    if (args.baseline or args.reader_baseline) and frozen_reader is None:
        parser.error(
            f"--baseline and --reader-baseline gate the Reader's speedups "
            f"over the frozen object Reader, but --frozen-dir "
            f"{args.frozen_dir!r} holds no _reference_reader.py"
        )
    report = run_bench(frozen=frozen, frozen_reader=frozen_reader, **params)

    for proto, entry in report["kernels"].items():
        line = (
            f"{proto:>5}: batched {entry['batched_ms_per_round']:8.2f} "
            f"ms/round"
        )
        if "batch_speedup_vs_frozen" in entry:
            line += (
                f" | frozen {entry['frozen_ms_per_round']:8.2f} ms/round"
                f" | {entry['batch_speedup_vs_frozen']:.2f}x"
            )
        print(line)
    rd = report["reader"]
    line = (
        f"packed {rd['packed_ms']:8.2f} ms | batched "
        f"{rd['batched_ms']:8.2f} ms"
    )
    if "object_ms" in rd:
        line = (
            f"object {rd['object_ms']:8.2f} ms | {line} "
            f"| {rd['packed_speedup']:.2f}x / {rd['batched_speedup']:.2f}x"
        )
    print(f"reader: {line}")

    out = Path(args.out)
    out.write_text(json.dumps(report, indent=2, sort_keys=True) + "\n")
    print(f"wrote {out}")
    if args.reader_out:
        reader_out = Path(args.reader_out)
        reader_doc = {"config": report["config"], "reader": report["reader"]}
        reader_out.write_text(
            json.dumps(reader_doc, indent=2, sort_keys=True) + "\n"
        )
        print(f"wrote {reader_out}")

    problems: list[str] = []
    gates: list[str] = []
    if args.baseline:
        baseline = json.loads(Path(args.baseline).read_text())
        problems += check_against_baseline(report, baseline, args.tolerance)
        gates.append(args.baseline)
    if args.reader_baseline:
        reader_baseline = json.loads(Path(args.reader_baseline).read_text())
        problems += check_reader_against_baseline(
            report, reader_baseline, args.tolerance
        )
        gates.append(args.reader_baseline)
    if gates:
        for p in problems:
            print(f"REGRESSION: {p}", file=sys.stderr)
        if problems:
            return 1
        print(
            f"gate OK vs {', '.join(gates)} "
            f"(tolerance {args.tolerance:.0%})"
        )
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
