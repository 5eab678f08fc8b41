"""Open- and closed-loop load over a fixed pool of connections (threads).

Open loop: request ``i`` is due at ``t0 + i / rate``, whatever the
replies do.  A connection that is still busy when the next request falls
due makes that request late.  Latency is timed from the *due* time, so a
stall shows up in every request queued behind it, and the generator's
own lateness (``sent - due``) is reported as lag.  A request that could
not be sent :data:`BACKLOG_S` after the last due time is recorded as
failed without being sent, which bounds the whole run.

Batch: each connection sends its next request as soon as its last reply
is in, until the batch is done.  Batches sent one after another measure
how many requests per second the server completes.
"""

from __future__ import annotations

import math
import threading
import time
from dataclasses import dataclass
from typing import Any, Callable, Sequence

from perfbench.stats import QUIET_Q, block_percentile, percentile

#: Head start before the first due time, so thread start-up is not lag.
LEAD_S = 0.02
#: How long after the last due time an open loop still sends.
BACKLOG_S = 5.0
#: How long past its deadline a connection may still be waiting on a reply
#: (every ``send`` bounds its own wait with a socket timeout).
JOIN_S = 60.0


@dataclass
class Outcome:
    index: int
    due: float = 0.0
    sent: float = 0.0
    done: float = 0.0
    ok: bool = False
    error: str | None = None
    value: Any = None

    @property
    def latency_s(self) -> float:
        return self.done - self.due

    @property
    def lag_s(self) -> float:
        return self.sent - self.due


def _drive(
    send: Callable[[Any], tuple[bool, Any]],
    requests: Sequence[Any],
    connections: int,
    outcomes: list[Outcome],
    stop_at: float,
    stop_error: str,
    scheduled: bool,
) -> None:
    """Hand ``requests`` out in order to ``connections`` threads.  A
    scheduled request waits for its due time; an unscheduled one is due
    when a connection takes it.  Requests taken after ``stop_at`` are not
    sent and fail with ``stop_error``."""
    if connections < 1:
        raise ValueError("connections must be positive")
    lock = threading.Lock()
    cursor = iter(range(len(requests)))
    errors: list[BaseException] = []

    def worker() -> None:
        try:
            while True:
                with lock:
                    i = next(cursor, None)
                if i is None:
                    return
                out = outcomes[i]
                if scheduled:
                    wait = out.due - time.perf_counter()
                    if wait > 0:
                        time.sleep(wait)
                out.sent = time.perf_counter()
                if not scheduled:
                    out.due = out.sent
                if out.sent > stop_at:
                    out.done = out.sent
                    out.error = stop_error
                    continue
                try:
                    out.ok, out.value = send(requests[i])
                except Exception as exc:  # one request's failure, recorded
                    out.ok, out.error = False, f"{type(exc).__name__}: {exc}"
                out.done = time.perf_counter()
                if not out.ok and out.error is None:
                    out.error = str(out.value)
        except BaseException as exc:  # pragma: no cover - reported below
            errors.append(exc)

    threads = [
        threading.Thread(target=worker, name=f"loadgen-{k}", daemon=True)
        for k in range(connections)
    ]
    for t in threads:
        t.start()
    join_by = stop_at + JOIN_S
    for t in threads:
        t.join(timeout=max(0.0, join_by - time.perf_counter()))
        if t.is_alive():
            raise RuntimeError("load generator thread did not finish")
    if errors:
        raise errors[0]


def run_open_loop(
    send: Callable[[Any], tuple[bool, Any]],
    requests: Sequence[Any],
    rate: float,
    connections: int,
) -> list[Outcome]:
    """Send ``requests`` at ``rate`` per second over ``connections``.

    ``send(request)`` returns ``(ok, value)`` and must bound its own wait
    (a socket timeout).  Requests still unsent :data:`BACKLOG_S` after
    the last due time fail with ``error="backlog"``.
    """
    if rate <= 0:
        raise ValueError("rate must be positive")
    t0 = time.perf_counter() + LEAD_S
    outcomes = [
        Outcome(index=i, due=t0 + i / rate) for i in range(len(requests))
    ]
    give_up = t0 + len(requests) / rate + BACKLOG_S
    _drive(send, requests, connections, outcomes, give_up, "backlog", True)
    return outcomes


def run_batch(
    send: Callable[[Any], tuple[bool, Any]],
    requests: Sequence[Any],
    connections: int,
) -> list[Outcome]:
    """Send all of ``requests`` in order over ``connections``, each
    connection back to back, and wait for the last reply."""
    outcomes = [Outcome(index=i) for i in range(len(requests))]
    stop_at = time.perf_counter() + JOIN_S
    _drive(send, requests, connections, outcomes, stop_at, "unsent", False)
    return outcomes


def batch_metrics(
    batches: Sequence[Sequence[Outcome]], units_per_batch: float
) -> dict[str, float]:
    """The timed end-to-end metrics of equal batches sent one after
    another.  Each batch has a rate (its requests over the time from its
    first send to its last reply) and latency percentiles (a failed
    request counts as infinitely slow); each metric is read at the batch
    of rank :data:`QUIET_Q` from the fast end."""
    spans, p50, p95 = [], [], []
    for batch in batches:
        spans.append(max(o.done for o in batch) - min(o.sent for o in batch))
        lat = [o.latency_s * 1e3 if o.ok else math.inf for o in batch]
        p50.append(percentile(lat, 50))
        p95.append(percentile(lat, 95))
    span = percentile(spans, QUIET_Q)
    return {
        "ops_per_s": len(batches[0]) / span,
        "tags_per_s": units_per_batch / span,
        "latency_p50_ms": percentile(p50, QUIET_Q),
        "latency_p95_ms": percentile(p95, QUIET_Q),
    }


@dataclass
class PhaseStats:
    sent: int
    ok: int
    failed: int
    p50_ms: float
    p95_ms: float
    lag_p95_ms: float
    late_lag_p95_ms: float  # lag over the last quarter: a growing backlog


def phase_stats(outcomes: Sequence[Outcome], block: int) -> PhaseStats:
    """Counts and percentiles of one open-loop phase.  p50 and p95 are
    medians over blocks of ``block`` requests (see
    :func:`perfbench.stats.block_percentile`); a failed request counts as
    infinitely slow."""
    if not outcomes:
        raise ValueError("no requests in phase")
    ok = [o for o in outcomes if o.ok]
    lat = [o.latency_s * 1e3 if o.ok else float("inf") for o in outcomes]
    lags = [max(o.lag_s, 0.0) * 1e3 for o in outcomes]
    tail = lags[-max(1, len(lags) // 4):]
    return PhaseStats(
        sent=sum(1 for o in outcomes if o.error != "backlog"),
        ok=len(ok),
        failed=len(outcomes) - len(ok),
        p50_ms=block_percentile(lat, 50, block),
        p95_ms=block_percentile(lat, 95, block),
        lag_p95_ms=percentile(lags, 95),
        late_lag_p95_ms=percentile(tail, 95),
    )
