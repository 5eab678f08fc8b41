"""Self-tests of the benchmark's own helpers.

    python3 -m pytest perfbench -q

(from the repository root; the repository's own test suite does not
collect these).
"""

from __future__ import annotations

import importlib
import json
import math
import random
import shutil
import subprocess
import sys
import time
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

from perfbench import loadgen  # noqa: E402
from perfbench.loadgen import (  # noqa: E402
    Outcome,
    batch_metrics,
    phase_stats,
    run_batch,
    run_open_loop,
)
from perfbench import hostspeed  # noqa: E402
from perfbench.stats import (  # noqa: E402
    block_percentile,
    interpolate_capacity,
    percentile,
    quiet_cycle_metrics,
    quiet_times,
    valid_name,
    valid_unit,
)
from perfbench.tracing import Tracer  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
LAYER_MAP = json.loads((ROOT / "perfbench" / "layers.json").read_text())
WORKLOADS = [w["name"] for w in SPEC["workloads"]]
E2E = [m["name"] for m in SPEC["end_to_end"]]
PER_LAYER = [m["name"] for m in SPEC["per_layer"]]


# -- nearest-rank percentile -------------------------------------------

def test_percentile_nearest_rank_known_values():
    sample = [35, 20, 15, 50, 40]
    assert percentile(sample, 5) == 15
    assert percentile(sample, 30) == 20
    assert percentile(sample, 40) == 20
    assert percentile(sample, 50) == 35
    assert percentile(sample, 100) == 50


def test_percentile_matches_definition():
    rng = random.Random(7)
    for _ in range(200):
        sample = [rng.random() for _ in range(rng.randint(1, 60))]
        q = rng.choice([1, 25, 50, 90, 95, 99, 100])
        p = percentile(sample, q)
        # The smallest observed value with at least q% of the sample <= it.
        at_or_below = sum(v <= p for v in sample)
        assert at_or_below >= q / 100 * len(sample)
        assert all(
            sum(v <= w for v in sample) < q / 100 * len(sample)
            for w in sample if w < p
        )


@pytest.mark.parametrize("q", [0, -1, 101])
def test_percentile_rejects_bad_rank(q):
    with pytest.raises(ValueError):
        percentile([1.0], q)


def test_percentile_rejects_empty():
    with pytest.raises(ValueError):
        percentile([], 50)


def test_block_percentile_is_the_median_of_block_figures():
    # Three blocks of four; one burst block does not move the result.
    values = [1, 2, 3, 4, 2, 3, 4, 5, 100, 200, 300, 400]
    assert block_percentile(values, 50, 4) == 3
    assert block_percentile(values, 100, 4) == 5
    # A trailing partial block is dropped; a short sample is one block.
    assert block_percentile(values + [1000], 100, 4) == 5
    assert block_percentile([3, 1, 2], 50, 4) == 2
    with pytest.raises(ValueError):
        block_percentile(values, 50, 0)


# -- quiet times -----------------------------------------------------------

def test_quiet_times_are_each_positions_fast_end():
    # Ten cycles of a two-op mix; the host ran slow in all but one cycle
    # for op 0 and in eight of ten for op 1.
    cycles = [[2.0, 5.0]] * 9 + [[1.0, 5.0]]
    cycles[0] = [2.0, 3.0]
    cycles[1] = [2.0, 3.5]
    assert quiet_times(cycles) == [1.0, 3.0]
    assert quiet_times(cycles, 20) == [2.0, 3.5]
    with pytest.raises(ValueError):
        quiet_times([[1.0, 2.0], [1.0]])
    with pytest.raises(ValueError):
        quiet_times([])


def test_quiet_cycle_metrics():
    # Quiet times 0.1, 0.2, 0.2, 0.5 s: a 1 s cycle of four ops.
    cycles = [[0.1, 0.2, 0.2, 0.5]] + [[0.3, 0.4, 0.4, 0.9]] * 9
    m = quiet_cycle_metrics(cycles, 40.0)
    assert m["ops_per_s"] == pytest.approx(4.0)
    assert m["tags_per_s"] == pytest.approx(40.0)
    assert m["latency_p50_ms"] == pytest.approx(200.0)
    assert m["latency_p95_ms"] == pytest.approx(500.0)


def test_host_speed_scales_to_the_reference_host():
    speed = hostspeed.HostSpeed()
    with pytest.raises(ValueError):
        speed.slowness()
    # A host twice as slow as the reference in its quiet phase, slower
    # still in the rest.
    speed.samples = [2 * hostspeed.NOMINAL_S] + [5 * hostspeed.NOMINAL_S] * 9
    assert speed.slowness() == pytest.approx(2.0)
    lines: list[str] = []
    scaled = speed.apply({"ops_per_s": 10.0, "latency_p50_ms": 8.0}, lines)
    assert scaled == {"ops_per_s": pytest.approx(20.0),
                      "latency_p50_ms": pytest.approx(4.0)}
    assert len(lines) == 1 and "ops_per_s=10" in lines[0]
    assert hostspeed.scale({"setup_s": 1.0}, 2.0) == {"setup_s": 0.5}
    with pytest.raises(ValueError):
        hostspeed.scale({"peak_rss_mb": 1.0}, 2.0)
    speed.sample(3)
    assert len(speed.samples) == 13 and all(t > 0 for t in speed.samples[10:])


# -- open-loop due-time accounting -------------------------------------

def stalled_sender(stall_index: int, stall_s: float):
    def send(i):
        time.sleep(stall_s if i == stall_index else 0.001)
        return True, i
    return send


def test_open_loop_stall_shows_in_later_requests_and_lag():
    rate, n, stall = 100.0, 40, 0.25
    outcomes = run_open_loop(stalled_sender(5, stall), list(range(n)), rate,
                             connections=1)
    assert [o.value for o in outcomes] == list(range(n))
    # The stalled request itself, and the ones due during the stall, which
    # a closed-loop timer would report as fast.
    assert outcomes[5].latency_s >= stall
    for o in outcomes[6:20]:
        assert o.lag_s > 0.05
        assert o.latency_s >= o.lag_s
    assert outcomes[6].latency_s >= stall - 0.02
    st = phase_stats(outcomes, n)
    assert st.lag_p95_ms >= 100.0
    assert st.p95_ms >= 100.0


def test_open_loop_without_stall_keeps_schedule():
    outcomes = run_open_loop(stalled_sender(-1, 0.0), list(range(40)), 100.0,
                             connections=2)
    st = phase_stats(outcomes, 40)
    assert st.failed == 0 and st.sent == 40
    assert st.lag_p95_ms < 30.0
    # Requests go out on the schedule, not back to back.
    assert outcomes[-1].sent - outcomes[0].sent >= 39 / 100.0 - 0.005


def test_open_loop_backlog_deadline_bounds_the_run(monkeypatch):
    monkeypatch.setattr(loadgen, "BACKLOG_S", 0.05)
    send = stalled_sender(0, 0.5)
    t0 = time.perf_counter()
    outcomes = run_open_loop(send, list(range(20)), 200.0, connections=1)
    assert time.perf_counter() - t0 < 1.5
    backlog = [o for o in outcomes if o.error == "backlog"]
    assert backlog and all(not o.ok for o in backlog)
    assert phase_stats(outcomes, 20).sent == 20 - len(backlog)


def test_open_loop_records_send_errors():
    def send(i):
        if i == 3:
            raise ConnectionRefusedError("refused")
        return (i != 4), "HTTP 503"

    outcomes = run_open_loop(send, list(range(8)), 500.0, connections=2)
    assert not outcomes[3].ok and "refused" in outcomes[3].error
    assert not outcomes[4].ok and outcomes[4].error == "HTTP 503"
    st = phase_stats(outcomes, 8)
    assert st.failed == 2
    # A failed request misses every latency limit.
    assert st.p95_ms == math.inf


# -- batches ----------------------------------------------------------------

def test_batch_keeps_every_connection_busy_until_done():
    def send(i):
        time.sleep(0.01)
        return True, i

    t0 = time.perf_counter()
    outcomes = run_batch(send, list(range(20)), connections=2)
    elapsed = time.perf_counter() - t0
    assert [o.value for o in outcomes] == list(range(20))
    assert all(o.ok and o.due == o.sent for o in outcomes)
    # Two connections back to back at 10 ms a request: ~0.1 s, not 0.2 s.
    assert 0.09 <= elapsed < 0.19


def test_batch_metrics_read_the_quiet_batch():
    def batch(start, step_s, ok=True):
        return [Outcome(index=i, due=start + i * step_s, sent=start + i * step_s,
                        done=start + (i + 1) * step_s, ok=ok) for i in range(4)]

    # Nine batches of four 10 ms requests, one of four 5 ms requests: the
    # quiet batch is the fast one.
    batches = [batch(k, 0.01) for k in range(9)] + [batch(9, 0.005)]
    m = batch_metrics(batches, 40.0)
    assert m["ops_per_s"] == pytest.approx(200.0)
    assert m["tags_per_s"] == pytest.approx(2000.0)
    assert m["latency_p50_ms"] == pytest.approx(5.0)
    assert m["latency_p95_ms"] == pytest.approx(5.0)
    # A failed request misses every latency limit.
    assert batch_metrics([batch(0, 0.01, ok=False)], 1.0)["latency_p95_ms"] == math.inf


# -- capacity interpolation ----------------------------------------------

def test_capacity_interpolates_where_p95_crosses_the_slo():
    steps = [(40, 50.0, True), (60, 80.0, True), (80, 120.0, False)]
    assert interpolate_capacity(steps, 100.0) == pytest.approx(70.0)


def test_capacity_all_pass_is_the_top_rate():
    assert interpolate_capacity([(40, 10.0, True), (60, 20.0, True)], 100.0) == 60


def test_capacity_first_step_fails():
    assert interpolate_capacity([(40, 300.0, False)], 100.0) == 0.0


def test_capacity_failing_on_errors_within_slo_is_the_passing_rate():
    steps = [(40, 50.0, True), (60, 70.0, False)]
    assert interpolate_capacity(steps, 100.0) == 40


def test_capacity_stops_at_the_first_failure():
    steps = [(40, 50.0, True), (60, 150.0, False), (80, 60.0, True)]
    assert interpolate_capacity(steps, 100.0) == pytest.approx(50.0)


def test_capacity_rejects_unordered_ladder():
    with pytest.raises(ValueError):
        interpolate_capacity([(60, 1.0, True), (40, 1.0, True)], 100.0)


# -- names, declarations and the layer map ---------------------------------

@pytest.mark.parametrize("name", ["setup_s", "sim.batch.fsa.ms_per_round",
                                  "9lives", "a-b_c.d", "x" * 64])
def test_valid_names(name):
    assert valid_name(name)


@pytest.mark.parametrize("name", ["", "_x", ".x", "a b", "a/b", "x" * 65,
                                  "ms\n", None, 3])
def test_invalid_names(name):
    assert not valid_name(name)


def test_units():
    for unit in ("ms", "s", "1/s", "tags/s", "%", "count"):
        assert valid_unit(unit)
    for unit in ("", "a b", "x" * 17, "µs"):
        assert not valid_unit(unit)


def test_benchmark_json_shape():
    assert set(SPEC) == {"command", "paths", "run_seconds", "workloads",
                         "end_to_end", "per_layer"}
    names = WORKLOADS + E2E + PER_LAYER
    assert all(valid_name(n) for n in names)
    assert len(set(names)) == len(names)
    for m in SPEC["end_to_end"]:
        assert set(m) == {"name", "unit", "better", "bound"}
        assert 0 < m["bound"] <= 0.25 and valid_unit(m["unit"])
    setup = next(m for m in SPEC["end_to_end"] if m["name"] == "setup_s")
    assert setup["bound"] == max(m["bound"] for m in SPEC["end_to_end"])
    for m in SPEC["per_layer"]:
        assert set(m) == {"name", "unit", "better"} and valid_unit(m["unit"])
    for w in SPEC["workloads"]:
        assert set(w) == {"name", "why"} and len(w["why"]) <= 200


def test_every_per_layer_metric_is_measured_and_declared():
    measured = set()
    for name in WORKLOADS:
        layers = importlib.import_module(f"perfbench.workloads.{name}").LAYERS
        assert layers <= set(PER_LAYER), name
        assert layers == set(LAYER_MAP["workloads"][name]["per_layer"]), name
        assert LAYER_MAP["workloads"][name]["end_to_end"] == E2E
        measured |= layers
    assert measured == set(PER_LAYER)


def test_layer_map_covers_each_metric_once():
    listed = [m for entry in LAYER_MAP["layers"] for m in entry["per_layer"]]
    assert sorted(listed) == sorted(PER_LAYER)
    for entry in LAYER_MAP["layers"]:
        for workload, metrics in entry["moves"].items():
            assert workload in WORKLOADS and set(metrics) <= set(E2E)
        assert set(entry["unmoved"]) <= set(WORKLOADS)
        assert not set(entry["unmoved"]) & set(entry["moves"])


# -- the tracer ------------------------------------------------------------

def test_tracer_nests_and_computes_self_time(tmp_path):
    tracer = Tracer()
    with tracer.span("op", k=1) as root:
        with tracer.span("child"):
            time.sleep(0.01)
        with tracer.span("child"):
            time.sleep(0.01)
    with tracer.span("op", k=2) as other:
        pass
    children = tracer.named("child")
    assert [c.parent_id for c in children] == [root.span_id] * 2
    assert {c.trace_id for c in children} == {root.trace_id}
    assert other.trace_id != root.trace_id and other.parent_id is None
    covered = sum(c.duration for c in children)
    assert tracer.self_time(root) == pytest.approx(root.duration - covered)
    path = tmp_path / "spans.jsonl"
    tracer.write_jsonl(path)
    rows = [json.loads(line) for line in path.read_text().splitlines()]
    assert len(rows) == 4
    for row in rows:
        assert {"name", "start", "end", "span_id", "parent_id",
                "trace_id"} <= set(row)
        assert row["end"] >= row["start"]


def test_prometheus_parser():
    from perfbench.workloads.fleet import parse_prom, total

    text = (
        "# HELP x y\n"
        'repro_serve_points_total{source="memo"} 3\n'
        'repro_serve_points_total{source="computed"} 4\n'
        'repro_serve_stage_seconds_sum{stage="queue_wait"} 0.5\n'
        "repro_serve_queue_depth 0\n"
    )
    samples = parse_prom(text)
    assert total(samples, "repro_serve_points_total") == 7
    assert total(samples, "repro_serve_points_total", source="memo") == 3
    assert total(samples, "repro_serve_stage_seconds_sum",
                 stage="queue_wait") == 0.5
    assert total(samples, "missing") == 0


# -- the runner itself ----------------------------------------------------

def run_bench(cwd: Path, *args: str) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, "perfbench/run.py", *args],
        cwd=cwd, capture_output=True, text=True, timeout=170,
    )


@pytest.mark.parametrize("trace", ["0", "1"])
def test_runner_prints_exactly_the_declared_metrics(trace):
    proc = run_bench(ROOT, "--workload", "inventory", "--seed", "3",
                     "--seconds", "1", "--trace", trace)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0
    expected = E2E if trace == "0" else PER_LAYER
    assert list(result["metrics"]) == expected
    units = {m["name"]: m["unit"] for m in SPEC["end_to_end"] + SPEC["per_layer"]}
    for name, m in result["metrics"].items():
        assert m["unit"] == units[name] and math.isfinite(m["value"])


def test_traced_counts_repeat_for_a_seed():
    counts = []
    for _ in range(2):
        proc = run_bench(ROOT, "--workload", "inventory", "--seed", "5",
                         "--seconds", "1", "--trace", "1")
        assert proc.returncode == 0, proc.stderr
        metrics = json.loads(proc.stdout.strip().splitlines()[-1])["metrics"]
        counts.append(metrics["sim.reader.slots"]["value"])
    assert counts[0] == counts[1] > 0


def test_runner_fails_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = run_bench(tmp_path, "--workload", "grid", "--seed", "1",
                     "--seconds", "1", "--trace", "0")
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""
    assert "no program sources" in proc.stderr
