"""Run one benchmark workload and print its metrics.

    python3 perfbench/run.py --workload grid --seed 1 --seconds 20 --trace 0

Run from the repository root.  ``--trace 0`` measures the end-to-end
metrics with tracing off; ``--trace 1`` runs a fixed amount of work
twice, untraced then traced, prints the per-layer metrics and the
tracing overhead, and writes the spans to
``.perfbench/trace-<workload>-seed<seed>.jsonl``.  The last line of
standard output is one JSON object::

    {"correct": true, "attempted": N, "failed": 0, "metrics": {...}}

The exit code is 0 only when every op passed its output check.  A run
that cannot complete (no sources, a server that dies or hangs) prints
an error to standard error, no result, and exits 1.
"""

from __future__ import annotations

import argparse
import importlib
import json
import math
import os
import resource
import shutil
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
# Run as a script, sys.path[0] is this directory; import the benchmark as
# the ``perfbench`` package and the program from the checkout's sources.
sys.path[0] = str(ROOT)
sys.path.insert(0, str(ROOT / "src"))

from perfbench.context import Context  # noqa: E402
from perfbench.procs import BenchError  # noqa: E402
from perfbench.stats import valid_name, valid_unit  # noqa: E402
from perfbench.tracing import NullTracer, Tracer  # noqa: E402


def load_spec(root: Path) -> dict:
    """``BENCHMARK.json``, with every name and unit checked."""
    try:
        spec = json.loads((root / "BENCHMARK.json").read_text())
    except (OSError, ValueError) as exc:
        raise BenchError(f"cannot read BENCHMARK.json: {exc}") from exc
    names = [w["name"] for w in spec["workloads"]]
    for group in ("end_to_end", "per_layer"):
        for m in spec[group]:
            names.append(m["name"])
            if not valid_unit(m["unit"]):
                raise BenchError(f"bad unit {m['unit']!r} for {m['name']}")
    bad = [n for n in names if not valid_name(n)]
    if bad or len(set(names)) != len(names):
        raise BenchError(f"bad or repeated names in BENCHMARK.json: {bad}")
    return spec


def import_program(root: Path) -> None:
    """Import ``repro`` from the checkout's ``src`` and nowhere else."""
    src = root / "src"
    if not (src / "repro" / "__init__.py").is_file():
        raise BenchError(f"no program sources under {src}")
    import repro

    if src.resolve() not in Path(repro.__file__).resolve().parents:
        raise BenchError(f"repro imported from {repro.__file__}, not {src}")


def collect(spec: dict, module, result, trace: bool) -> dict[str, dict]:
    """The declared metric set of the mode, with units; raises on any
    metric that is missing, undeclared or not a finite number."""
    group = spec["per_layer" if trace else "end_to_end"]
    units = {m["name"]: m["unit"] for m in group}
    expected = set(module.LAYERS) if trace else set(units)
    got = set(result.metrics)
    if got != expected:
        raise BenchError(
            f"workload metrics differ from the declaration: missing "
            f"{sorted(expected - got)}, undeclared {sorted(got - expected)}"
        )
    out = {}
    for name, unit in units.items():
        value = float(result.metrics.get(name, 0.0))
        if not math.isfinite(value):
            raise BenchError(f"metric {name} is not finite: {value}")
        out[name] = {"value": value, "unit": unit}
    return out


def host_cpu_ticks() -> tuple[int, int] | None:
    """(stolen, total) CPU ticks of the host so far, from ``/proc/stat``."""
    try:
        fields = Path("/proc/stat").read_text().split("\n", 1)[0].split()[1:]
    except OSError:
        return None
    ticks = [int(f) for f in fields]
    return (ticks[7] if len(ticks) > 7 else 0), sum(ticks)


def main(argv: list[str] | None = None) -> int:
    try:
        spec = load_spec(ROOT)
    except BenchError as exc:
        print(f"perfbench: error: {exc}", file=sys.stderr)
        return 1
    parser = argparse.ArgumentParser(prog="perfbench/run.py")
    parser.add_argument(
        "--workload", required=True, choices=[w["name"] for w in spec["workloads"]]
    )
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds < 1 or args.seed < 0:
        parser.error("--seconds must be >= 1 and --seed >= 0")

    work = ROOT / ".perfbench"
    tmp = work / f"tmp-{os.getpid()}"
    try:
        import_program(ROOT)
        tmp.mkdir(parents=True, exist_ok=True)
        module = importlib.import_module(f"perfbench.workloads.{args.workload}")
        ctx = Context(
            root=ROOT,
            seed=args.seed,
            seconds=float(args.seconds),
            trace=bool(args.trace),
            tmp=tmp,
            tracer=Tracer() if args.trace else NullTracer(),
        )
        ticks0 = host_cpu_ticks()
        result = module.run(ctx)
        ticks1 = host_cpu_ticks()
        if not args.trace:
            own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
            result.metrics["peak_rss_mb"] = own + result.servers_rss_mb
        metrics = collect(spec, module, result, bool(args.trace))
        if args.trace:
            spans = work / f"trace-{args.workload}-seed{args.seed}.jsonl"
            ctx.tracer.write_jsonl(spans)
    except BenchError as exc:
        print(f"perfbench: error: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(tmp, ignore_errors=True)

    for line in result.lines:
        print(line)
    for name, m in metrics.items():
        idle = args.trace and name not in module.LAYERS
        note = "  (layer idle on this workload)" if idle else ""
        print(f"{name:<40} {m['value']:>14.6g} {m['unit']}{note}")
    if ticks0 and ticks1 and ticks1[1] > ticks0[1]:
        # Other tenants of a shared host take CPU away ("steal"); the
        # wall-clock metrics of a run slow down with it.
        stolen = (ticks1[0] - ticks0[0]) / (ticks1[1] - ticks0[1])
        print(f"host CPU stolen by other tenants during the run: {stolen:.1%}")
    ratio = result.failed / result.attempted if result.attempted else 1.0
    print(f"{'failed_ratio':<40} {ratio:>14.6g} ratio "
          f"({result.failed} of {result.attempted} ops)")
    if args.trace:
        overhead = metrics["trace.overhead_ratio"]["value"]
        print(f"tracing overhead: traced/untraced wall = {overhead:.4f}; "
              f"spans in {spans.relative_to(ROOT)}")
    correct = result.failed == 0 and result.attempted > 0
    print(json.dumps({
        "correct": correct,
        "attempted": max(result.attempted, 1),
        "failed": result.failed,
        "metrics": metrics,
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
