"""Command-line entry point: regenerate any table or figure.

Usage::

    python -m repro.experiments table7 --rounds 100 --seed 2010
    python -m repro.experiments all --rounds 20
    repro-experiments fig8
    repro-experiments table7 --workers 4 --cache-dir results/.mc-cache
    repro-experiments table7 --metrics-out metrics.json
    repro-experiments obs-report

``--workers N`` shards every grid point's Monte-Carlo rounds across N
processes (bit-identical results; see EXPERIMENTS.md).  ``--cache-dir
DIR`` reuses aggregated grid points across invocations; ``--no-cache``
ignores the cache for one run.

Paper experiments: table2 table3 table4 table7 table8 table9 fig5 fig6
fig7 fig8 (``all`` runs these).  Beyond-the-paper studies: gen2 energy
estimators noise neighbor coverage missing (``extensions`` runs these;
see also the asserted versions under ``benchmarks/``).

Observability (``docs/OBSERVABILITY.md``): ``--metrics-out FILE`` enables
the :mod:`repro.obs` instrumentation for the run and dumps the metrics
registry afterwards as JSON plus a Prometheus-text sibling; ``--trace-out
FILE`` streams span/event records as JSON lines while the run executes;
``obs-report`` runs a small seeded, fully instrumented demo and prints
the registry next to the trace-derived ground truth.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path
from typing import Callable, Mapping, Sequence

from repro import obs
from repro.obs.report import metrics_percentile_rows
from repro.experiments import extensions, figures, tables
from repro.experiments.config import DEFAULT_ROUNDS
from repro.experiments.report import render_table
from repro.experiments.runner import ExperimentSuite

__all__ = ["main", "run_obs_report", "EXPERIMENTS", "EXTENSIONS"]

#: experiment id -> (needs_suite, generator, title)
EXPERIMENTS: dict[str, tuple[bool, Callable, str]] = {
    "table2": (False, tables.table2, "Table II: minimum EI on FSA (theory)"),
    "table3": (False, tables.table3, "Table III: average EI on BT (theory)"),
    "table4": (False, tables.table4, "Table IV: CRC-CD vs QCD cost (measured)"),
    "table7": (True, tables.table7, "Table VII: FSA simulation"),
    "table8": (True, tables.table8, "Table VIII: BT simulation"),
    "table9": (True, tables.table9, "Table IX: QCD utilization rate (FSA)"),
    "fig5": (True, figures.fig5, "Figure 5: QCD detection accuracy (FSA)"),
    "fig6": (True, figures.fig6, "Figure 6: identification delay (FSA)"),
    "fig7": (True, figures.fig7, "Figure 7: transmission time"),
    "fig8": (True, figures.fig8, "Figure 8: measured EI"),
}

#: beyond-the-paper study id -> (generator(seed=...), title)
EXTENSIONS: dict[str, tuple[Callable, str]] = {
    "gen2": (extensions.ext_gen2, "Extension: EI under Gen2 link timing"),
    "energy": (extensions.ext_energy, "Extension: energy budget per inventory"),
    "estimators": (
        extensions.ext_estimators,
        "Extension: DFSA estimator race (n=5000)",
    ),
    "noise": (extensions.ext_noise, "Extension: bit-error robustness sweep"),
    "neighbor": (
        extensions.ext_neighbor,
        "Extension: neighbor discovery (paper §VII)",
    ),
    "coverage": (
        extensions.ext_coverage,
        "Extension: sensor-field coverage (paper §VII)",
    ),
    "missing": (
        extensions.ext_missing,
        "Extension: missing-tag verification",
    ),
}


def run_experiment(
    exp_id: str, suite: ExperimentSuite
) -> Sequence[Mapping[str, str]]:
    """Run one experiment and return its rows."""
    if exp_id in EXPERIMENTS:
        needs_suite, fn, _ = EXPERIMENTS[exp_id]
        return fn(suite) if needs_suite else fn()
    fn, _ = EXTENSIONS[exp_id]
    return fn(seed=suite.seed)


def _title(exp_id: str) -> str:
    if exp_id in EXPERIMENTS:
        return EXPERIMENTS[exp_id][2]
    return EXTENSIONS[exp_id][1]


# ----------------------------------------------------------------------
# Observability


def run_obs_report(suite: ExperimentSuite) -> list[dict[str, str]]:
    """Instrumented seeded demo; returns registry-vs-ground-truth rows.

    Runs one exact-reader inventory and one vectorized FSA kernel with
    observability enabled, then cross-checks the registry's slot-outcome
    counters against the trace/stats the runs returned.  Requires
    :mod:`repro.obs` to be enabled (``main`` guarantees it) and assumes a
    freshly reset registry.
    """
    import numpy as np

    from repro.bits.rng import make_rng
    from repro.core.qcd import QCDDetector
    from repro.protocols.fsa import FramedSlottedAloha
    from repro.sim.batch import fsa_fast_batch
    from repro.sim.metrics import slot_counts
    from repro.sim.reader import Reader

    from repro.tags.population import TagPopulation

    pop = TagPopulation(100, id_bits=64, rng=make_rng(suite.seed))
    reader = Reader(QCDDetector(8), suite.timing)
    result = reader.run_inventory(pop.tags, FramedSlottedAloha(64))
    kernel = fsa_fast_batch(
        1000,
        600,
        QCDDetector(8),
        suite.timing,
        [np.random.Generator(np.random.PCG64(suite.seed))],
    ).runs[0]

    exact_true = slot_counts(result.trace)
    exact_det = slot_counts(result.trace, detected=True)
    truth_true = {
        "IDLE": exact_true.idle + kernel.true_counts.idle,
        "SINGLE": exact_true.single + kernel.true_counts.single,
        "COLLIDED": exact_true.collided + kernel.true_counts.collided,
    }
    truth_det = {
        "IDLE": exact_det.idle + kernel.detected_counts.idle,
        "SINGLE": exact_det.single + kernel.detected_counts.single,
        "COLLIDED": exact_det.collided + kernel.detected_counts.collided,
    }
    rows: list[dict[str, str]] = []
    for by, truth in (("true_type", truth_true), ("detected_type", truth_det)):
        observed = obs.slot_totals(by=by)
        for outcome in ("IDLE", "SINGLE", "COLLIDED"):
            got = int(observed.get(outcome, 0))
            want = truth[outcome]
            rows.append(
                {
                    "counter": f"repro_slots_total[{by}={outcome}]",
                    "registry": str(got),
                    "trace ground truth": str(want),
                    "match": "yes" if got == want else "NO",
                }
            )
    return rows


def _dump_metrics(path: Path) -> tuple[Path, Path]:
    """Write the registry as JSON to ``path`` and Prometheus text next to
    it (the ``.prom`` sibling); if ``path`` ends in ``.prom`` the roles
    swap.  Returns (json_path, prom_path)."""
    if path.suffix == ".prom":
        prom_path = path
        json_path = path.with_suffix(".json")
    else:
        json_path = path
        prom_path = path.with_suffix(".prom")
    json_path.parent.mkdir(parents=True, exist_ok=True)
    registry = obs.STATE.registry
    json_path.write_text(registry.to_json() + "\n")
    prom_path.write_text(registry.to_prometheus())
    return json_path, prom_path


# ----------------------------------------------------------------------


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        prog="repro-experiments",
        description="Regenerate the paper's tables and figures, plus the "
        "beyond-the-paper extension studies.",
    )
    parser.add_argument(
        "experiment",
        choices=[*EXPERIMENTS, *EXTENSIONS, "all", "extensions", "obs-report"],
        help="experiment id, 'all' (paper), 'extensions', or 'obs-report' "
        "(instrumented demo + registry dump)",
    )
    parser.add_argument(
        "--rounds",
        type=int,
        default=DEFAULT_ROUNDS,
        help=f"Monte-Carlo rounds per grid point (default {DEFAULT_ROUNDS})",
    )
    parser.add_argument("--seed", type=int, default=2010, help="root seed")
    parser.add_argument(
        "--workers",
        type=int,
        default=1,
        metavar="N",
        help="shard each grid point's Monte-Carlo rounds across N "
        "processes (default 1 = in-process); results are bit-identical "
        "for any worker count",
    )
    parser.add_argument(
        "--cache-dir",
        type=Path,
        default=None,
        metavar="DIR",
        help="persist aggregated grid points to DIR and reuse them on "
        "later invocations (keyed by rounds/seed/timing/case/protocol/"
        "scheme plus a schema version)",
    )
    parser.add_argument(
        "--no-cache",
        action="store_true",
        help="ignore --cache-dir for this run (neither read nor write)",
    )
    parser.add_argument(
        "--metrics-out",
        type=Path,
        default=None,
        metavar="FILE",
        help="enable repro.obs for the run and dump the metrics registry "
        "afterwards: JSON to FILE plus Prometheus text to FILE's .prom "
        "sibling",
    )
    parser.add_argument(
        "--trace-out",
        type=Path,
        default=None,
        metavar="FILE",
        help="enable repro.obs and stream span/event records to FILE as "
        "JSON lines while the run executes",
    )
    args = parser.parse_args(argv)

    observing = (
        args.metrics_out is not None
        or args.trace_out is not None
        or args.experiment == "obs-report"
    )
    # The suite context-manages the executor pool: every exit path below
    # (including a failing JsonlSink or a raising experiment) releases
    # the worker processes.
    with ExperimentSuite(
        rounds=args.rounds,
        seed=args.seed,
        workers=args.workers,
        cache_dir=None if args.no_cache else args.cache_dir,
    ) as suite:
        enabled = False
        try:
            if observing:
                obs.reset()
                sink = obs.JsonlSink(args.trace_out) if args.trace_out else None
                obs.enable(sink=sink)
                enabled = True
            if args.experiment == "obs-report":
                rows = run_obs_report(suite)
                print(
                    render_table(
                        rows,
                        title="Observability self-check "
                        "(registry vs trace ground truth)",
                    )
                )
                print()
                print(obs.STATE.registry.to_prometheus())
                pct_rows = metrics_percentile_rows(
                    obs.STATE.registry.to_dict()
                )
                if pct_rows:
                    print(
                        render_table(
                            pct_rows,
                            title="Histogram percentiles "
                            "(bucket interpolation)",
                        )
                    )
                if not all(r["match"] == "yes" for r in rows):
                    return 1
            else:
                if args.experiment == "all":
                    ids = list(EXPERIMENTS)
                elif args.experiment == "extensions":
                    ids = list(EXTENSIONS)
                else:
                    ids = [args.experiment]
                for exp_id in ids:
                    rows = run_experiment(exp_id, suite)
                    print(render_table(rows, title=_title(exp_id)))
                    print()
        finally:
            if enabled:
                if args.metrics_out is not None:
                    json_path, prom_path = _dump_metrics(args.metrics_out)
                    print(f"metrics written to {json_path} and {prom_path}")
                if args.trace_out is not None:
                    print(f"trace written to {args.trace_out}")
                obs.disable(close_sink=args.trace_out is not None)
    return 0


if __name__ == "__main__":
    sys.exit(main())
