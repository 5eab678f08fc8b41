"""``gateway``: closed-loop inventories over the binary wire protocol.

One spawned ``repro-gateway``; one client connection runs
``GatewayClient.run_inventory`` back to back, cycling fsa/dfsa x
QCD-8/QCD-16/CRC-CD at :data:`N_TAGS` tags.  It does the Reader work of the
``inventory`` workload's framed ops plus the wire plane: codec, outbox
and reassembly.  The traced run times the same specs through the
in-process ``run_spec`` so the wire's share can be split from the
Reader's.  A second concurrent client would mostly measure GIL sharing
inside the gateway, so there is one.
"""

from __future__ import annotations

import json
import sys
import time

from repro import obs
from repro.gateway import codec
from repro.gateway.client import GatewayClient, GatewayError
from repro.gateway.readers import build_population, run_spec

from perfbench.context import Context, Result, SETUP_DEADLINE_S, median_setup
from perfbench.hostspeed import HostSpeed
from perfbench.procs import BenchError, Server, peak_rss_mb
from perfbench.stats import mean, quiet_cycle_metrics, ratio
from perfbench.tracing import NullTracer

#: 200 rather than 500 tags: at 500 a wire inventory takes ~175 ms, too
#: few for the 200 ops per run that a p95 with ten samples beyond needs.
N_TAGS = 200
FRAME_SIZE = 128
#: Two QCD strengths per CRC-CD inventory, so the median latency lies
#: inside the QCD inventories rather than in the gap between detectors.
MIX = [(p, s) for p in ("fsa", "dfsa") for s in ("qcd-8", "qcd-16", "crc")]
CLIENT_TIMEOUT_S = 10.0

LAYERS = {
    "gateway.reader_ms",
    "gateway.wire_ms",
    "gateway.codec.frames_in",
    "gateway.codec.bytes_in",
    "gateway.report_ms",
    "gateway.crc_failures",
    "trace.overhead_ratio",
}


class CountingClient(GatewayClient):
    """Counts the frames and wire bytes the client decodes."""

    frames_in = 0
    bytes_in = 0

    def recv_frame(self) -> codec.Frame:
        frame = super().recv_frame()
        self.frames_in += 1
        self.bytes_in += len(codec.encode_frame(frame))
        return frame


def spawn(ctx: Context) -> tuple[Server, object]:
    """A ready gateway and the path its drain writes metrics to."""
    work = ctx.fresh_dir("gateway")
    metrics = work / "metrics.json"
    server = Server(
        "repro-gateway",
        [sys.executable, "-m", "repro.gateway", "--port", "0",
         "--readers", "1", "--metrics-out", str(metrics)],
        ctx.env(), ctx.root, work / "gateway.log", "repro-gateway",
    )
    try:
        port = server.wait_listening(SETUP_DEADLINE_S)

        def answers() -> bool:
            try:
                with GatewayClient("127.0.0.1", port, timeout_s=1.0) as c:
                    c.capabilities()
                return True
            except GatewayError:
                return False

        server.wait_until(answers, "answering capabilities", SETUP_DEADLINE_S)
    except BaseException:
        server.kill()
        raise
    return server, metrics


def spec_of(ctx: Context, k: int, stream: str = "gateway") -> tuple:
    protocol, scheme = MIX[k % len(MIX)]
    return protocol, scheme, ctx.sub_seed(stream, k)


def run_ops(ctx, client, server, tracer, cycles, deadline, speed=None):
    """Whole cycles of the mix (op k runs ``spec_of(ctx, k)``) until
    ``cycles`` are done, or ``deadline`` has passed with at least
    ``ctx.min_ops()`` ops run.  ``speed``, if given, is sampled before
    each cycle.

    Returns (records, wall_s)."""
    records = []
    done = 0
    t_start = time.perf_counter()
    while (done < cycles if cycles is not None
           else time.perf_counter() < deadline
           or len(records) < ctx.min_ops()):
        if speed is not None:
            speed.sample()
        for _ in MIX:
            k = len(records)
            protocol, scheme, seed = spec_of(ctx, k)
            t0 = time.perf_counter()
            try:
                with tracer.span("gateway.op", protocol=protocol, scheme=scheme):
                    with tracer.span("gateway.client.run_inventory"):
                        summary = client.run_inventory(
                            0, protocol, scheme, FRAME_SIZE, N_TAGS, seed
                        )
                error = None
            except GatewayError as exc:
                summary, error = None, f"{type(exc).__name__}: {exc}"
                server.check_alive()
            records.append({"k": k, "latency_s": time.perf_counter() - t0,
                            "summary": summary, "error": error})
        done += 1
    return records, time.perf_counter() - t_start


def check(ctx: Context, records) -> list[str]:
    """The tag ids each wire inventory reported must be exactly its
    population's (after the timed window)."""
    failures = []
    for rec in records:
        k, summary = rec["k"], rec["summary"]
        if summary is None:
            failures.append(f"op {k}: {rec['error']}")
            continue
        _, _, seed = spec_of(ctx, k)
        done = summary.complete
        if (
            done is None or done.stopped or done.identified != N_TAGS
            or summary.reconnects
            or summary.tag_ids != set(build_population(N_TAGS, seed).ids)
        ):
            failures.append(f"op {k}: reported tags differ from the population")
    return failures


def drain_metrics(server: Server, path) -> dict:
    server.stop()
    try:
        doc = json.loads(path.read_text())
    except (OSError, ValueError) as exc:
        raise BenchError(f"gateway wrote no metrics snapshot: {exc}") from exc

    def sample(name: str) -> dict:
        samples = doc.get(name, {}).get("samples", [])
        return samples[0] if samples else {}

    report = sample("repro_gateway_report_seconds")
    return {
        "crc_failures": float(sample("repro_gateway_crc_failures_total").get("value", 0)),
        "report_ms": ratio(report.get("sum", 0.0) * 1e3, report.get("count", 0)),
    }


def run(ctx: Context) -> Result:
    servers: list[tuple[Server, object]] = []

    def timed_setup() -> float:
        # Every set-up but the last is drained again at once.
        if servers:
            servers.pop()[0].stop()
        t0 = time.perf_counter()
        servers.append(spawn(ctx))
        return time.perf_counter() - t0

    client = None
    speed = HostSpeed()
    try:
        if ctx.trace:
            timed_setup()
        else:
            setup_s = median_setup(timed_setup, speed)
        server, metrics_path = servers[0]
        client = GatewayClient("127.0.0.1", server.port, timeout_s=CLIENT_TIMEOUT_S)
        # One untimed cycle: the gateway's first inventories pay for lazy
        # imports and allocations.
        try:
            for k in range(len(MIX)):
                protocol, scheme, seed = spec_of(ctx, k, "gateway-warmup")
                client.run_inventory(0, protocol, scheme, FRAME_SIZE, N_TAGS, seed)
        except GatewayError as exc:
            raise BenchError(f"gateway warm-up failed: {exc}") from exc
        if not ctx.trace:
            records, _ = run_ops(
                ctx, client, server, NullTracer(), None,
                time.perf_counter() + ctx.seconds, speed,
            )
            all_records = records
        else:
            cycles = ctx.trace_units() * 4
            rec_u, wall_u = run_ops(
                ctx, client, server, NullTracer(), cycles, None
            )
            client.close()
            client = CountingClient(
                "127.0.0.1", server.port, timeout_s=CLIENT_TIMEOUT_S
            )
            records, wall = run_ops(
                ctx, client, server, ctx.tracer, cycles, None
            )
            all_records = rec_u + records
        client.close()
        server.check_alive()
        servers_rss = peak_rss_mb(server.pid)
        snapshot = drain_metrics(server, metrics_path)
        servers.clear()
    finally:
        if client is not None:
            client.close()
        for server, _ in servers:
            server.kill()

    failures = check(ctx, all_records)
    if snapshot["crc_failures"]:
        failures.append(f"gateway counted {snapshot['crc_failures']:g} CRC failures")
    if not ctx.trace:
        n = len(MIX)
        cycles = [[r["latency_s"] for r in records[i:i + n]]
                  for i in range(0, len(records), n)]
        tags = sum(len(r["summary"].reports) for r in records if r["summary"])
        lines: list[str] = []
        metrics = speed.apply({
            "setup_s": setup_s, **quiet_cycle_metrics(cycles, tags / len(cycles))
        }, lines)
        return Result(len(records), len(failures), metrics, lines + failures,
                      servers_rss_mb=servers_rss)

    # The same specs through the in-process funnel: the Reader's share.
    # The gateway runs with instrumentation on, which puts the Reader on
    # its object path; turning it on here keeps both sides on that path.
    reader_s = []
    obs.enable()
    try:
        for rec in records:
            protocol, scheme, seed = spec_of(ctx, rec["k"])
            spec = codec.StartInventory(
                reader_id=0, protocol=protocol, scheme=scheme,
                frame_size=FRAME_SIZE, n_tags=N_TAGS, seed=seed,
            )
            with ctx.tracer.span("gateway.run_spec", protocol=protocol,
                                 scheme=scheme) as sp:
                run_spec(spec)
            reader_s.append(sp.duration)
    finally:
        obs.disable()
    reader_ms = mean(reader_s) * 1e3
    metrics = {
        "gateway.reader_ms": reader_ms,
        # Untraced wire latencies: the traced client also re-encodes
        # every frame it counts.
        "gateway.wire_ms": mean([r["latency_s"] for r in rec_u]) * 1e3 - reader_ms,
        "gateway.codec.frames_in": float(client.frames_in),
        "gateway.codec.bytes_in": float(client.bytes_in),
        "gateway.report_ms": snapshot["report_ms"],
        "gateway.crc_failures": snapshot["crc_failures"],
        "trace.overhead_ratio": wall / wall_u,
    }
    return Result(len(all_records), len(failures), metrics, failures,
                  servers_rss_mb=servers_rss)
