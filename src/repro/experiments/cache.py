"""On-disk result cache for Monte-Carlo grid points.

Regenerating the paper's tables and figures re-runs the same grid; this
cache lets repeated CLI invocations (and the benchmark harness) skip
grid points that were already simulated.  One JSON document per grid
point, under the directory handed to ``--cache-dir``:

* the **key** is a SHA-256 content hash over every input that determines
  the result -- schema version, rounds, root seed, the timing model
  (tau / id_bits / crc_bits), the case (name, n_tags, frame_size),
  protocol and scheme.  Changing *any* of them changes the key, so a
  cache never has to be manually invalidated; bumping
  :data:`SCHEMA_VERSION` orphans every old entry at once.
* the **value** is the aggregated stats mapping (the caller serializes
  its dataclass; this module stays payload-agnostic), written RFC-8259
  clean: NaN is stored as ``null`` and restored by the caller.

Writes are atomic (temp file + ``os.replace``) so concurrent runners
sharing a cache directory never observe torn entries; unreadable,
mismatched or stale-schema entries read as misses, never as errors.
The temp-file name is unique per *call* (pid + per-process counter), not
just per process, so two threads storing the same key concurrently can
never clobber each other's half-written temp file; a crashed writer's
orphaned ``*.tmp.*`` files are swept when a process first opens the
directory (only ones old enough that no live writer can still own them).
Later opens of the same directory by that process skip the sweep, so
opening a cache costs no directory scan however many entries it holds.
"""

from __future__ import annotations

import hashlib
import itertools
import json
import os
import threading
import time
from pathlib import Path
from typing import Mapping

from repro.sim.export import nan_to_none

__all__ = [
    "SCHEMA_VERSION",
    "ResultCache",
    "cache_key",
    "grid_point_params",
]

#: Orphaned temp files younger than this many seconds are left alone on
#: cache open: they may belong to a concurrent writer that is still
#: between ``write_text`` and ``os.replace``.
STALE_TMP_SECONDS = 3600.0

#: Per-process monotonic id: combined with the pid it makes every store()
#: call's temp file unique, even across threads racing on one key.
_TMP_IDS = itertools.count()

#: Resolved cache roots this process has already swept for orphaned
#: temp files (suites open caches from several threads at once).
_SWEPT_ROOTS: set[Path] = set()
_SWEPT_LOCK = threading.Lock()

#: Bump when the cached payload's meaning changes (new AggregateStats
#: fields, different aggregation semantics, ...); every existing entry
#: then misses.
SCHEMA_VERSION = 1


def cache_key(params: Mapping[str, object]) -> str:
    """Content hash of one grid point's inputs (hex, stable across runs)."""
    canonical = json.dumps(
        nan_to_none(dict(params)), sort_keys=True, separators=(",", ":")
    )
    return hashlib.sha256(canonical.encode("utf-8")).hexdigest()


def grid_point_params(
    *,
    rounds: int,
    seed: int,
    tau: float,
    id_bits: int,
    crc_bits: int,
    case_name: str,
    n_tags: int,
    frame_size: int,
    protocol: str,
    scheme: str,
) -> dict[str, object]:
    """The canonical cache-key parameter document of one grid point.

    This is the *routing contract* of the fleet: the single-process
    suite (:meth:`repro.experiments.runner.ExperimentSuite._cache_params`)
    and the front router (:mod:`repro.serve.router`) both derive cache
    keys through this one function, so a grid point's placement on the
    consistent-hash ring always agrees with the backend's own memo/L2
    key -- without the router having to build an ``ExperimentSuite``.
    """
    return {
        "schema": SCHEMA_VERSION,
        "rounds": rounds,
        "seed": seed,
        "tau": tau,
        "id_bits": id_bits,
        "crc_bits": crc_bits,
        "case": {
            "name": case_name,
            "n_tags": n_tags,
            "frame_size": frame_size,
        },
        "protocol": protocol,
        "scheme": scheme,
    }


class ResultCache:
    """Directory of ``<key>.json`` grid-point results."""

    def __init__(self, root: str | Path) -> None:
        self.root = Path(root)
        self.root.mkdir(parents=True, exist_ok=True)
        resolved = self.root.resolve()
        with _SWEPT_LOCK:
            first_open = resolved not in _SWEPT_ROOTS
            _SWEPT_ROOTS.add(resolved)
        if first_open:
            self._sweep_orphaned_tmp()

    def _sweep_orphaned_tmp(self, max_age_s: float = STALE_TMP_SECONDS) -> int:
        """Delete ``*.tmp.*`` files older than ``max_age_s``; return count.

        Recent temp files are spared: a concurrent writer in another
        process may be about to ``os.replace`` one of them.  Only files a
        crashed writer left behind long ago are reclaimed.
        """
        removed = 0
        cutoff = time.time() - max_age_s
        for tmp in self.root.glob("*.tmp.*"):
            try:
                if tmp.stat().st_mtime < cutoff:
                    tmp.unlink()
                    removed += 1
            except OSError:
                continue  # raced with another sweeper or the owner
        return removed

    def path_for(self, params: Mapping[str, object]) -> Path:
        return self.root / f"{cache_key(params)[:32]}.json"

    def load(self, params: Mapping[str, object]) -> dict | None:
        """The cached stats mapping, or ``None`` on any kind of miss.

        A hit requires a parseable document, a matching schema version
        and byte-equal parameters (belt and braces on top of the hashed
        filename); anything else -- including a corrupt or truncated
        file -- is treated as a miss.
        """
        path = self.path_for(params)
        try:
            doc = json.loads(path.read_text())
        except (OSError, ValueError):
            return None
        if not isinstance(doc, dict):
            return None
        if doc.get("schema") != SCHEMA_VERSION:
            return None
        if doc.get("params") != nan_to_none(dict(params)):
            return None
        stats = doc.get("stats")
        return stats if isinstance(stats, dict) else None

    def store(
        self, params: Mapping[str, object], stats: Mapping[str, object]
    ) -> Path:
        """Atomically persist one grid point; returns the entry's path."""
        path = self.path_for(params)
        doc = {
            "schema": SCHEMA_VERSION,
            "params": nan_to_none(dict(params)),
            "stats": nan_to_none(dict(stats)),
        }
        payload = json.dumps(doc, indent=2, sort_keys=True, allow_nan=False)
        # pid + per-process counter: unique per call, so threads racing on
        # one key each write (and atomically promote) their own temp file.
        tmp = path.with_name(
            f"{path.name}.tmp.{os.getpid()}.{next(_TMP_IDS)}"
        )
        try:
            tmp.write_text(payload + "\n")
            os.replace(tmp, path)
        except BaseException:
            tmp.unlink(missing_ok=True)
            raise
        return path
