"""``inventory``: exact Reader inventories, in process, closed loop.

Each op builds a fresh ``TagPopulation`` and runs ``Reader.run_inventory``
on it.  The mix cycles the frame-batched protocols (fsa, dfsa) at
:data:`FRAMED_TAGS` tags and the per-slot tree protocols (bt, qt, abs,
aqs) at :data:`TREE_TAGS` tags, each with QCD-8, QCD-16 and CRC-CD, so both
Reader tiers and both detectors carry real work.  All the time is in
``repro.tags``, ``repro.sim.reader``, the protocols and the ``core``
detectors.
"""

from __future__ import annotations

import time

from repro import (
    AdaptiveBinarySplitting,
    AdaptiveQuerySplitting,
    BinaryTree,
    CRCCDDetector,
    DynamicFSA,
    FramedSlottedAloha,
    QCDDetector,
    QueryTree,
    Reader,
    TagPopulation,
    TimingModel,
    make_rng,
)

from perfbench.context import Context, Result, median_setup, probe_setup
from perfbench.hostspeed import HostSpeed
from perfbench.stats import mean, quiet_cycle_metrics, ratio
from perfbench.tracing import NullTracer

FRAMED_TAGS = 500
FRAME_SIZE = 300
#: 100 rather than 200 tags: the CRC-CD tree inventories cost ~270 ms
#: each at 200 tags, which would leave fewer than the 200 ops per run
#: that a p95 with ten samples beyond it needs.
TREE_TAGS = 100
ID_BITS = 64

PROTOCOLS = {
    "fsa": lambda: FramedSlottedAloha(FRAME_SIZE),
    "dfsa": lambda: DynamicFSA(initial_frame_size=FRAME_SIZE),
    "bt": BinaryTree,
    "qt": QueryTree,
    "abs": AdaptiveBinarySplitting,
    "aqs": AdaptiveQuerySplitting,
}
FRAMED = ("fsa", "dfsa")
#: Two QCD strengths per CRC-CD inventory.  With one of each, the QCD
#: inventories (all faster) would fill exactly the lower half of the
#: latencies, putting the median in the gap between the detectors, where
#: it jumped 56-79 ms between runs.
SCHEMES = ("qcd-8", "qcd-16", "crc")
MIX = [(protocol, scheme) for protocol in PROTOCOLS for scheme in SCHEMES]
#: Host speed probes before each cycle (~0.8 s): about 75 in a 20 s run.
SPEED_PROBES = 3

LAYERS = {
    "tags.population.build_ms",
    "sim.reader.framed.ms_per_inventory",
    "sim.reader.tree.ms_per_inventory",
    "sim.reader.qcd.us_per_slot",
    "sim.reader.crc.us_per_slot",
    "sim.reader.slots",
    "sim.reader.single_ratio",
    "trace.overhead_ratio",
}


def make_reader(scheme: str) -> Reader:
    detector = (
        CRCCDDetector(id_bits=ID_BITS)
        if scheme == "crc"
        else QCDDetector(strength=int(scheme.split("-")[1]))
    )
    return Reader(detector, TimingModel())


def setup(scratch) -> dict[str, Reader]:
    return {scheme: make_reader(scheme) for scheme in SCHEMES}


def run_ops(ctx: Context, tracer, cycles: int | None, deadline: float | None,
            speed: HostSpeed | None = None):
    """Run whole cycles of the mix (op k is ``MIX[k % len(MIX)]`` on its own
    population) until ``cycles`` are done, or ``deadline`` has passed with
    at least ``ctx.min_ops()`` ops run.  ``speed``, if given, is sampled
    before each cycle.

    Returns (records, failures, wall_s)."""
    records: list[dict] = []
    failures: list[str] = []
    done = 0
    t_start = time.perf_counter()
    k = 0
    while (done < cycles if cycles is not None
           else time.perf_counter() < deadline
           or len(records) < ctx.min_ops()):
        if speed is not None:
            speed.sample(SPEED_PROBES)
        for protocol, scheme in MIX:
            n_tags = FRAMED_TAGS if protocol in FRAMED else TREE_TAGS
            rng = make_rng(ctx.sub_seed("inventory", k))
            t0 = time.perf_counter()
            with tracer.span("inventory.op", protocol=protocol, scheme=scheme):
                with tracer.span("tags.population.build"):
                    population = TagPopulation(n_tags, id_bits=ID_BITS, rng=rng)
                with tracer.span("sim.reader.run_inventory"):
                    result = make_reader(scheme).run_inventory(
                        population.tags, PROTOCOLS[protocol]()
                    )
            t_end = time.perf_counter()
            counts = result.stats.true_counts
            records.append({
                "protocol": protocol,
                "scheme": scheme,
                "latency_s": t_end - t0,
                "tags": len(result.identified_ids),
                "slots": counts.idle + counts.single + counts.collided,
                "single": counts.single,
            })
            if result.lost_ids or sorted(result.identified_ids) != sorted(
                population.ids
            ):
                failures.append(f"op {k} {protocol}/{scheme}: identified IDs "
                                "differ from the population")
            k += 1
        done += 1
    return records, failures, time.perf_counter() - t_start


def warm_up() -> None:
    """Each protocol and detector once on a small population, untimed."""
    for protocol, scheme in MIX:
        population = TagPopulation(16, id_bits=ID_BITS, rng=make_rng(0))
        make_reader(scheme).run_inventory(population.tags, PROTOCOLS[protocol]())


def run(ctx: Context) -> Result:
    warm_up()
    if not ctx.trace:
        speed = HostSpeed()
        setup_s = median_setup(lambda: probe_setup(ctx, "inventory"), speed)
        records, failures, _ = run_ops(
            ctx, NullTracer(), None, time.perf_counter() + ctx.seconds, speed
        )
        n = len(MIX)
        cycles = [[r["latency_s"] for r in records[i:i + n]]
                  for i in range(0, len(records), n)]
        tags = sum(r["tags"] for r in records) / len(cycles)
        lines: list[str] = []
        metrics = speed.apply(
            {"setup_s": setup_s, **quiet_cycle_metrics(cycles, tags)}, lines
        )
        return Result(len(records), len(failures), metrics, lines + failures)

    cycles = ctx.trace_units() * 2
    rec_u, fail_u, wall_u = run_ops(ctx, NullTracer(), cycles, None)
    records, failures, wall = run_ops(ctx, ctx.tracer, cycles, None)
    spans = {s.span_id: s for s in ctx.tracer.spans}
    reader_spans = ctx.tracer.named("sim.reader.run_inventory")

    def reader_ms(pred) -> float:
        return mean([
            s.duration * 1e3 for s in reader_spans
            if pred(spans[s.parent_id].attrs)
        ])

    def us_per_slot(kind: str) -> float:
        busy = sum(
            s.duration for s in reader_spans
            if spans[s.parent_id].attrs["scheme"].startswith(kind)
        )
        slots = sum(r["slots"] for r in records if r["scheme"].startswith(kind))
        return ratio(busy * 1e6, slots)

    slots = sum(r["slots"] for r in records)
    metrics = {
        "tags.population.build_ms": mean(
            [s.duration * 1e3 for s in ctx.tracer.named("tags.population.build")]
        ),
        "sim.reader.framed.ms_per_inventory": reader_ms(
            lambda a: a["protocol"] in FRAMED
        ),
        "sim.reader.tree.ms_per_inventory": reader_ms(
            lambda a: a["protocol"] not in FRAMED
        ),
        "sim.reader.qcd.us_per_slot": us_per_slot("qcd"),
        "sim.reader.crc.us_per_slot": us_per_slot("crc"),
        "sim.reader.slots": float(slots),
        "sim.reader.single_ratio": ratio(
            sum(r["single"] for r in records), slots
        ),
        "trace.overhead_ratio": wall / wall_u,
    }
    failures = fail_u + failures
    return Result(len(rec_u) + len(records), len(failures), metrics, failures)
