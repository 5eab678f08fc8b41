"""repro.serve -- asyncio inventory-simulation service.

A dependency-free (stdlib asyncio) HTTP service exposing the
:mod:`repro.experiments` grid runner over the network, built around
three load-shaping mechanisms:

* **admission control** (:mod:`repro.serve.queue`) -- a bounded priority
  queue with per-client fair-share quotas; overload is shed as
  ``429 Too Many Requests`` plus a ``Retry-After`` estimate instead of
  melting down;
* **request coalescing** (:mod:`repro.serve.coalesce`) -- identical
  in-flight grid points (same result-cache content hash) compute once,
  with every duplicate request fed from the leader's future;
* **streaming results** (:mod:`repro.serve.server`) -- async jobs stream
  per-point results as NDJSON the moment they complete.

The remaining modules: :mod:`repro.serve.protocol` (versioned wire
schema and typed error envelopes), :mod:`repro.serve.workers` (the
asyncio/thread bridge onto ``ExperimentSuite`` + the shared executor and
result cache), :mod:`repro.serve.client` (blocking client with
Retry-After-aware backoff) and :mod:`repro.serve.loadgen` (open-loop
load generator behind the ``BENCH_serve`` baseline).

Above the single process sits the fleet tier: :mod:`repro.serve.http1`
(the shared HTTP/1.1 transport and request pipeline),
:mod:`repro.serve.ring` (consistent hashing), :mod:`repro.serve.backend`
(subprocess supervision and health probing) and
:mod:`repro.serve.router` (``repro-serve-router``), which
consistent-hashes every grid point onto N backends so coalescing and the
memo/L2 cache tiers become fleet-wide guarantees.
:mod:`repro.serve.lifecycle` is the start/drain skeleton the server, the
router and ``repro-gateway`` share.

Run the server with ``repro-serve`` or ``python -m repro.serve`` and the
fleet with ``repro-serve-router``; see ``docs/SERVING.md`` for the API
reference.

Submodules load lazily, mirroring :mod:`repro.verify`: ``workers``
imports the simulation stack and the client/loadgen are pure-stdlib --
eager imports would make ``import repro.serve`` pay for all of it.
"""

from __future__ import annotations

import importlib

_SUBMODULES = (
    "backend",
    "client",
    "coalesce",
    "http1",
    "lifecycle",
    "loadgen",
    "protocol",
    "queue",
    "ring",
    "router",
    "server",
    "workers",
)

__all__ = list(_SUBMODULES)


def __getattr__(name: str):
    if name in _SUBMODULES:
        return importlib.import_module(f"repro.serve.{name}")
    raise AttributeError(f"module 'repro.serve' has no attribute {name!r}")


def __dir__() -> list[str]:
    return sorted(set(globals()) | set(_SUBMODULES))
