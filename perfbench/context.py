"""What every workload receives (:class:`Context`) and returns (:class:`Result`)."""

from __future__ import annotations

import hashlib
import sys
import tempfile
import time
from dataclasses import dataclass, field
from pathlib import Path

from perfbench.hostspeed import HostSpeed
from perfbench.procs import BenchError, Process, child_env
from perfbench.stats import median
from perfbench.tracing import NullTracer, Tracer

#: Set-ups per run; ``setup_s`` is their median.
SETUP_REPEATS = 5
#: Host speed probes before each set-up.
SETUP_PROBES = 3
#: Hard limit on one set-up (interpreter start, imports, server health).
SETUP_DEADLINE_S = 60.0


@dataclass
class Result:
    attempted: int
    failed: int
    metrics: dict[str, float]
    lines: list[str] = field(default_factory=list)
    #: Peak RSS of the servers the workload spawned (added to its own).
    servers_rss_mb: float = 0.0


@dataclass
class Context:
    root: Path
    seed: int
    seconds: float
    trace: bool
    tmp: Path  # inside the checkout; removed when the run ends
    tracer: Tracer | NullTracer

    def sub_seed(self, *keys: object) -> int:
        """A deterministic 62-bit seed derived from ``--seed`` and ``keys``."""
        text = ":".join(str(k) for k in (self.seed, *keys))
        digest = hashlib.sha256(text.encode()).digest()
        return int.from_bytes(digest[:8], "big") >> 2

    def env(self) -> dict:
        return child_env(self.root, self.tmp)

    def fresh_dir(self, prefix: str) -> Path:
        return Path(tempfile.mkdtemp(prefix=f"{prefix}-", dir=self.tmp))

    def min_ops(self) -> int:
        """Closed loops run on past ``--seconds`` until they have this many
        ops: at the usual 20 s, the 200 a p95 with ten samples beyond
        needs, even on a slow or busy host."""
        return 10 * int(self.seconds)

    def trace_units(self) -> int:
        """Fixed work units of a traced run: a function of ``--seconds``
        only, so the traced counts repeat exactly for a given seed."""
        return max(1, int(self.seconds) // 10)


def probe_setup(ctx: Context, workload: str) -> float:
    """Seconds from spawning a fresh interpreter to the end of the
    workload's in-process set-up (imports plus ``setup()``)."""
    scratch = ctx.fresh_dir(f"setup-{workload}")
    t0 = time.perf_counter()
    proc = Process(
        f"{workload} set-up probe",
        [sys.executable, "-m", "perfbench.setup_probe", workload, str(scratch)],
        ctx.env(),
        ctx.root,
        scratch / "probe.log",
    )
    try:
        proc.wait_for_line(r"^ready$", SETUP_DEADLINE_S)
        elapsed = time.perf_counter() - t0
        if proc.wait_exit(SETUP_DEADLINE_S) != 0:
            raise BenchError(f"{workload} set-up probe failed")
    finally:
        proc.kill()
    return elapsed


def median_setup(measure, speed: HostSpeed) -> float:
    """Median of :data:`SETUP_REPEATS` calls of ``measure()``, with the
    host's speed probed before each."""
    times = []
    for _ in range(SETUP_REPEATS):
        speed.sample(SETUP_PROBES)
        times.append(measure())
    return median(times)
