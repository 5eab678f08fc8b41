"""Canonical metric names and the shared instrumentation helpers.

One module owns every metric the simulation stack emits, so names and
label schemas cannot drift between the exact reader, the vectorized
kernels and the experiment runner (``docs/OBSERVABILITY.md`` is the
human-readable registry of the same names).

Every helper here assumes the caller already checked
``STATE.enabled`` -- these functions do real work and must only run in
enabled mode.  The contract that makes the dumps trustworthy:

* summing ``repro_slots_total`` over ``detected_type`` grouped by
  ``true_type`` reproduces :func:`repro.sim.metrics.slot_counts` of the
  same run exactly (and vice versa for detected counts), whether the run
  went through the exact reader (per-slot increments, or per-frame bulk
  increments on its frame-batched tier) or a vectorized kernel (bulk
  increments from the synthesized stats).
"""

from __future__ import annotations

from repro.obs.state import STATE

__all__ = [
    "SLOTS",
    "INVENTORIES",
    "FRAMES",
    "IDENTIFIED",
    "LOST",
    "CAPTURES",
    "MISDETECTIONS",
    "INVENTORY_AIRTIME",
    "MOBILITY_EVENTS",
    "ESCAPED",
    "MONITOR_ROUNDS",
    "MONITOR_CHURN",
    "MONITOR_PRESENT",
    "SWEEPS",
    "JAMMED",
    "GRID_POINTS",
    "MC_ROUNDS",
    "INVARIANT_VIOLATIONS",
    "SERVE_REQUESTS",
    "SERVE_REQUEST_SECONDS",
    "SERVE_STAGE_SECONDS",
    "SERVE_REJECTS",
    "SERVE_QUEUE_DEPTH",
    "SERVE_INFLIGHT",
    "SERVE_COALESCE_HITS",
    "SERVE_POINTS",
    "SERVE_JOBS",
    "ROUTER_REQUESTS",
    "ROUTER_FORWARDS",
    "ROUTER_FORWARD_SECONDS",
    "ROUTER_RETRIES",
    "ROUTER_EJECTIONS",
    "ROUTER_BACKENDS_HEALTHY",
    "ROUTER_STREAM_RESUMES",
    "GATEWAY_FRAMES_IN",
    "GATEWAY_FRAMES_OUT",
    "GATEWAY_CRC_FAILURES",
    "GATEWAY_MALFORMED",
    "GATEWAY_CONNECTIONS",
    "GATEWAY_INVENTORIES",
    "GATEWAY_REPORT_SECONDS",
    "record_slot",
    "record_slots",
    "record_inventory",
    "record_kernel_stats",
]

SLOTS = "repro_slots_total"
INVENTORIES = "repro_inventories_total"
FRAMES = "repro_frames_total"
IDENTIFIED = "repro_identified_tags_total"
LOST = "repro_lost_tags_total"
CAPTURES = "repro_captures_total"
MISDETECTIONS = "repro_misdetections_total"
INVENTORY_AIRTIME = "repro_inventory_airtime"
MOBILITY_EVENTS = "repro_mobility_events_total"
ESCAPED = "repro_escaped_tags_total"
MONITOR_ROUNDS = "repro_monitoring_rounds_total"
MONITOR_CHURN = "repro_monitoring_churn_total"
MONITOR_PRESENT = "repro_monitoring_present_tags"
SWEEPS = "repro_multireader_sweeps_total"
JAMMED = "repro_jammed_tags_total"
GRID_POINTS = "repro_grid_points_total"
MC_ROUNDS = "repro_mc_rounds_total"
INVARIANT_VIOLATIONS = "repro_invariant_violations_total"

# -- repro.serve (the simulation service; see docs/SERVING.md) ---------
SERVE_REQUESTS = "repro_serve_requests_total"
SERVE_REQUEST_SECONDS = "repro_serve_request_seconds"
#: Histogram of per-request stage latencies, labelled ``stage`` --
#: ``queue_wait`` / ``coalesce`` / ``compute`` / ``stream`` -- mirroring
#: the ``serve.<stage>`` span names (docs/OBSERVABILITY.md).
SERVE_STAGE_SECONDS = "repro_serve_stage_seconds"
SERVE_REJECTS = "repro_serve_rejects_total"
SERVE_QUEUE_DEPTH = "repro_serve_queue_depth"
SERVE_INFLIGHT = "repro_serve_inflight_points"
SERVE_COALESCE_HITS = "repro_serve_coalesce_hits_total"
SERVE_POINTS = "repro_serve_points_total"
SERVE_JOBS = "repro_serve_jobs_total"

# -- repro.serve.router (the fleet front door; docs/SERVING.md) --------
#: Requests through the router, by route and final status.
ROUTER_REQUESTS = "repro_router_requests_total"
#: Router -> backend hops, labelled ``backend`` and ``outcome``
#: (``ok`` / ``shed`` / ``error``).
ROUTER_FORWARDS = "repro_router_forwards_total"
#: Wall time of one backend hop, labelled ``backend``.
ROUTER_FORWARD_SECONDS = "repro_router_forward_seconds"
#: Points re-routed to a new owner after an ejection.
ROUTER_RETRIES = "repro_router_retries_total"
#: Ring ejections, by reason (``unreachable``/``draining``/``dead``...).
ROUTER_EJECTIONS = "repro_router_ejections_total"
#: Healthy backends currently on the ring (gauge).
ROUTER_BACKENDS_HEALTHY = "repro_router_backends_healthy"
#: NDJSON job streams transparently resumed on a surviving backend.
ROUTER_STREAM_RESUMES = "repro_router_stream_resumes_total"

# -- repro.gateway (binary reader gateway; docs/GATEWAY.md) ------------
#: Well-formed frames received, labelled ``cmd`` (the frame class name).
GATEWAY_FRAMES_IN = "repro_gateway_frames_in_total"
#: Frames sent, labelled ``cmd``.
GATEWAY_FRAMES_OUT = "repro_gateway_frames_out_total"
#: Frames rejected for a CRC trailer mismatch (the wire-integrity
#: signal; the CI smoke job asserts this stays 0 on a clean link).
GATEWAY_CRC_FAILURES = "repro_gateway_crc_failures_total"
#: Frames rejected for any other malformation, labelled ``reason``
#: (``malformed_frame`` / ``unsupported``).
GATEWAY_MALFORMED = "repro_gateway_malformed_frames_total"
#: Currently open client connections (gauge).
GATEWAY_CONNECTIONS = "repro_gateway_connections_active"
#: Inventory sessions finished, labelled ``protocol`` / ``detector`` /
#: ``outcome`` (``done`` / ``stopped`` / ``disconnect`` / ``error``).
GATEWAY_INVENTORIES = "repro_gateway_inventories_total"
#: Wall seconds from START_INVENTORY to each TAG_REPORT hitting the
#: outbound queue (report latency as the client experiences it).
GATEWAY_REPORT_SECONDS = "repro_gateway_report_seconds"

#: Airtime histogram buckets (units of tau): decade ladder wide enough
#: for a 10-tag toy run and the paper's 50 000-tag case IV.
AIRTIME_BUCKETS = tuple(
    float(10**e) * m for e in range(1, 9) for m in (1.0, 3.0)
)


_HELP = {
    IDENTIFIED: "Tags successfully identified",
    LOST: "Tags lost to misdetection ('lost' policy)",
    CAPTURES: "Collided slots resolved by the capture effect",
}
_IDENTIFIED_KEY = (IDENTIFIED,)
_LOST_KEY = (LOST,)
_CAPTURES_KEY = (CAPTURES,)
_MISSED_KEY = (MISDETECTIONS, "missed_collision")
_FALSE_KEY = (MISDETECTIONS, "false_collision")


def _misdetections_counter():
    return STATE.registry.counter(
        MISDETECTIONS, "Detector errors by kind", labelnames=("kind",)
    )


def _slots_counter():
    return STATE.registry.counter(
        SLOTS,
        "Slots executed, by ground-truth and detected verdict",
        labelnames=("true_type", "detected_type"),
    )


def record_slot(record) -> None:
    """Per-slot counters + a ``slot`` trace event (exact reader path).

    ``record`` is a :class:`repro.sim.trace.SlotRecord`; typed loosely to
    keep :mod:`repro.obs` import-independent of :mod:`repro.sim`.
    """
    reg = STATE.registry
    true_name = record.true_type.name
    detected_name = record.detected_type.name
    _slots_counter().labels(
        true_type=true_name, detected_type=detected_name
    ).inc()
    if record.identified_tag is not None:
        reg.counter(IDENTIFIED, _HELP[IDENTIFIED]).inc()
    if record.lost_tags:
        reg.counter(LOST, _HELP[LOST]).inc(record.lost_tags)
    if record.captured:
        reg.counter(CAPTURES, _HELP[CAPTURES]).inc()
    elif true_name == "COLLIDED" and detected_name == "SINGLE":
        _misdetections_counter().labels(kind="missed_collision").inc()
    elif true_name == "SINGLE" and detected_name == "COLLIDED":
        _misdetections_counter().labels(kind="false_collision").inc()
    tracer = STATE.tracer
    if tracer.discards:
        return
    tracer.event(
        "slot",
        index=record.index,
        frame=record.frame,
        true_type=true_name,
        detected_type=detected_name,
        n_responders=record.n_responders,
        duration=record.duration,
    )


def record_slots(records) -> None:
    """Bulk :func:`record_slot` over consecutive records (one batched frame).

    The increments are tallied first, keyed in first-occurrence order, and
    then applied with one ``inc(n)`` per family and label combination, so
    the registry gains the same families and children, in the same order
    and with the same values, as one :func:`record_slot` call per record.
    The ``slot`` events follow in slot order (none are built when the
    tracer's sink discards them).  The branches mirror :func:`record_slot`'s; keep the two in step
    (``tests/obs/test_reader_obs_paths.py`` pins them equal).
    """
    tally: dict[tuple[str, ...], int] = {}
    get = tally.get
    for record in records:
        true_name = record.true_type.name
        detected_name = record.detected_type.name
        key = (SLOTS, true_name, detected_name)
        tally[key] = get(key, 0) + 1
        if record.identified_tag is not None:
            tally[_IDENTIFIED_KEY] = get(_IDENTIFIED_KEY, 0) + 1
        if record.lost_tags:
            tally[_LOST_KEY] = get(_LOST_KEY, 0) + record.lost_tags
        if record.captured:
            tally[_CAPTURES_KEY] = get(_CAPTURES_KEY, 0) + 1
        elif true_name == "COLLIDED" and detected_name == "SINGLE":
            tally[_MISSED_KEY] = get(_MISSED_KEY, 0) + 1
        elif true_name == "SINGLE" and detected_name == "COLLIDED":
            tally[_FALSE_KEY] = get(_FALSE_KEY, 0) + 1
    reg = STATE.registry
    for key, n in tally.items():
        name = key[0]
        if name == SLOTS:
            _slots_counter().labels(
                true_type=key[1], detected_type=key[2]
            ).inc(n)
        elif name == MISDETECTIONS:
            _misdetections_counter().labels(kind=key[1]).inc(n)
        else:
            reg.counter(name, _HELP[name]).inc(n)
    tracer = STATE.tracer
    if tracer.discards:
        return
    for record in records:
        tracer.event(
            "slot",
            index=record.index,
            frame=record.frame,
            true_type=record.true_type.name,
            detected_type=record.detected_type.name,
            n_responders=record.n_responders,
            duration=record.duration,
        )


def record_inventory(engine: str, frames: int, airtime: float) -> None:
    """Inventory-completion counters shared by all engines."""
    reg = STATE.registry
    reg.counter(
        INVENTORIES, "Inventory runs completed", labelnames=("engine",)
    ).labels(engine=engine).inc()
    reg.counter(
        FRAMES,
        "Frames started (frame restarts included)",
        labelnames=("engine",),
    ).labels(engine=engine).inc(frames)
    reg.histogram(
        INVENTORY_AIRTIME,
        "Total airtime per inventory (units of tau)",
        labelnames=("engine",),
        buckets=AIRTIME_BUCKETS,
    ).labels(engine=engine).observe(airtime)


def record_kernel_stats(engine: str, stats) -> None:
    """Bulk counters for a vectorized kernel run.

    ``stats`` is the kernel's :class:`~repro.sim.metrics.InventoryStats`;
    the increments land on exactly the label combinations the exact
    reader would have produced slot by slot (kernels draw misses only in
    the collided->single direction and see no captures).
    """
    reg = STATE.registry
    slots = _slots_counter()
    counts = stats.true_counts
    missed = stats.missed_collisions
    if counts.idle:
        slots.labels(true_type="IDLE", detected_type="IDLE").inc(counts.idle)
    if counts.single:
        slots.labels(true_type="SINGLE", detected_type="SINGLE").inc(
            counts.single
        )
    if counts.collided - missed:
        slots.labels(true_type="COLLIDED", detected_type="COLLIDED").inc(
            counts.collided - missed
        )
    if missed:
        slots.labels(true_type="COLLIDED", detected_type="SINGLE").inc(missed)
        _misdetections_counter().labels(kind="missed_collision").inc(missed)
    if counts.single:
        reg.counter(IDENTIFIED, _HELP[IDENTIFIED]).inc(counts.single)
    record_inventory(engine, stats.frames, stats.total_time)
