"""Versioned wire schema of the simulation service (``/v1``).

One module owns every document that crosses the HTTP boundary -- the
simulate request, the job/result envelopes and the typed error envelope
-- so the server, the blocking client, the load generator and the
property-test strategies all agree on field names and validation rules.

Design rules:

* **strict validation** -- unknown keys, wrong types, out-of-range values
  and duplicate grid axes are all rejected with a
  :class:`ProtocolError` carrying a machine-readable ``code`` and the
  offending ``field``; a malformed request can never reach the engine
  (and therefore never turns into a 500);
* **versioned** -- every document carries ``"version"``;
  :data:`PROTOCOL_VERSION` is 1 and requests with any other version are
  rejected with ``unsupported_version`` so clients fail loudly, not
  subtly;
* **RFC 8259 clean** -- stats payloads pass through
  :func:`repro.sim.export.nan_to_none` before serialization (NaN is not
  JSON), mirroring the on-disk result cache.

The request names grid axes exactly like
:meth:`repro.experiments.runner.ExperimentSuite.grid`: ``cases`` (named
paper cases or inline ``{name, n_tags, frame_size}`` objects),
``protocols`` (``fsa``/``bt``) and ``schemes`` (``crc``/``qcd-<s>``);
their cross product is the job's grid-point list.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from typing import Mapping, Sequence

from repro.experiments.config import CASES, SimulationCase
from repro.sim.export import nan_to_none

__all__ = [
    "PROTOCOL_VERSION",
    "REQUEST_ID_HEADER",
    "SERVER_TIMING_HEADER",
    "MAX_REQUEST_ID_LEN",
    "valid_request_id",
    "server_timing_value",
    "parse_server_timing",
    "MAX_GRID_POINTS",
    "MAX_ROUNDS",
    "MAX_TAGS",
    "MAX_FRAME_SIZE",
    "MAX_SEED",
    "MAX_CLIENT_LEN",
    "PROTOCOLS",
    "MODES",
    "MIN_PRIORITY",
    "MAX_PRIORITY",
    "ERROR_STATUS",
    "ProtocolError",
    "GridPoint",
    "SimulateRequest",
    "parse_simulate_request",
    "parse_simulate_body",
    "parse_case",
    "parse_scheme",
    "error_envelope",
    "job_envelope",
    "result_line",
    "done_line",
    "sync_response",
]

#: Version of every ``/v1`` document; bump on incompatible schema change.
PROTOCOL_VERSION = 1

# -- request identity / timing headers ---------------------------------
#
# Every request is identified by an ``X-Request-Id``: the server honors
# a well-formed client-supplied value (so one logical request stays one
# trace across retries) or generates one, and echoes it on *every*
# response, including typed error envelopes.  ``Server-Timing`` carries
# the per-stage latency breakdown (milliseconds, per the header's spec)
# so clients can attribute slowness without server-side access.

REQUEST_ID_HEADER = "X-Request-Id"
SERVER_TIMING_HEADER = "Server-Timing"
MAX_REQUEST_ID_LEN = 128

#: Characters allowed in a client-supplied request id: URL/header-safe
#: tokens only, so ids can be grepped through logs and used in paths.
_REQUEST_ID_CHARS = frozenset(
    "abcdefghijklmnopqrstuvwxyzABCDEFGHIJKLMNOPQRSTUVWXYZ0123456789-_."
)


def valid_request_id(value: object) -> bool:
    """True if ``value`` is acceptable as a client-supplied request id."""
    return (
        isinstance(value, str)
        and 1 <= len(value) <= MAX_REQUEST_ID_LEN
        and all(c in _REQUEST_ID_CHARS for c in value)
    )


def server_timing_value(stage_s: Mapping[str, float]) -> str:
    """Render stage durations (seconds) as a ``Server-Timing`` value.

    ``{"queue_wait": 0.0123, "compute": 0.5}`` becomes
    ``queue_wait;dur=12.3, compute;dur=500.0`` (``dur`` is milliseconds
    per the Server-Timing specification).
    """
    return ", ".join(
        f"{stage};dur={seconds * 1000.0:.3f}"
        for stage, seconds in stage_s.items()
        if not math.isnan(seconds)
    )


def parse_server_timing(value: str) -> dict[str, float]:
    """Parse a ``Server-Timing`` header value into ``{stage: seconds}``.

    Tolerant by design (the header is advisory): entries without a
    parsable ``dur`` parameter are skipped rather than raising.
    """
    out: dict[str, float] = {}
    for entry in value.split(","):
        entry = entry.strip()
        if not entry:
            continue
        name, *params = [p.strip() for p in entry.split(";")]
        if not name:
            continue
        for param in params:
            key, sep, raw = param.partition("=")
            if sep and key.strip().lower() == "dur":
                try:
                    out[name] = float(raw.strip()) / 1000.0
                except ValueError:
                    pass
                break
    return out

# Resource ceilings: a single request may not describe more work than one
# operator-sized experiment.  All are validation errors, not truncation.
MAX_GRID_POINTS = 64
MAX_ROUNDS = 10_000
MAX_TAGS = 200_000
MAX_FRAME_SIZE = 200_000
MAX_SEED = 2**63 - 1
MAX_CLIENT_LEN = 64
MAX_CASE_NAME_LEN = 64
MAX_QCD_STRENGTH = 64

PROTOCOLS = ("fsa", "bt")
MODES = ("sync", "async")
MIN_PRIORITY = 0
MAX_PRIORITY = 9

#: error code -> HTTP status.  Every error the service emits uses one of
#: these codes; anything else is a bug.
ERROR_STATUS = {
    "invalid_request": 400,
    "unsupported_version": 400,
    "not_found": 404,
    "method_not_allowed": 405,
    "payload_too_large": 413,
    "overloaded": 429,
    "internal": 500,
    "draining": 503,
}


class ProtocolError(Exception):
    """A typed wire-level error, rendered as the JSON error envelope.

    ``code`` must be a key of :data:`ERROR_STATUS`; ``field`` names the
    offending request field when there is one; ``retry_after_s`` (for
    ``overloaded``/``draining``) becomes the ``Retry-After`` header.
    """

    def __init__(
        self,
        code: str,
        message: str,
        *,
        field: str | None = None,
        retry_after_s: float | None = None,
    ) -> None:
        if code not in ERROR_STATUS:
            raise ValueError(f"unknown error code {code!r}")
        super().__init__(message)
        self.code = code
        self.message = message
        self.field = field
        self.retry_after_s = retry_after_s

    @property
    def status(self) -> int:
        return ERROR_STATUS[self.code]


def _invalid(message: str, field: str | None = None) -> ProtocolError:
    return ProtocolError("invalid_request", message, field=field)


def _require_int(
    value: object, field: str, lo: int, hi: int
) -> int:
    # bool is an int subclass; a JSON true/false here is a type error.
    if isinstance(value, bool) or not isinstance(value, int):
        raise _invalid(f"{field} must be an integer", field)
    if not lo <= value <= hi:
        raise _invalid(f"{field} must be in [{lo}, {hi}]", field)
    return value


def _require_str(value: object, field: str, max_len: int) -> str:
    if not isinstance(value, str):
        raise _invalid(f"{field} must be a string", field)
    if not value or len(value) > max_len:
        raise _invalid(
            f"{field} must be 1..{max_len} characters", field
        )
    if not value.isprintable():
        raise _invalid(f"{field} must be printable", field)
    return value


def _require_list(value: object, field: str, max_len: int) -> list:
    if not isinstance(value, list):
        raise _invalid(f"{field} must be an array", field)
    if not value:
        raise _invalid(f"{field} must not be empty", field)
    if len(value) > max_len:
        raise _invalid(f"{field} has more than {max_len} entries", field)
    return value


def parse_case(value: object, field: str = "cases") -> SimulationCase:
    """A named paper case (``"I"``..``"IV"``) or an inline case object."""
    if isinstance(value, str):
        case = CASES.get(value)
        if case is None:
            raise _invalid(
                f"unknown named case {value!r} "
                f"(known: {', '.join(CASES)})",
                field,
            )
        return case
    if isinstance(value, dict):
        extra = set(value) - {"name", "n_tags", "frame_size"}
        if extra:
            raise _invalid(
                f"unknown case keys: {', '.join(sorted(extra))}", field
            )
        missing = {"name", "n_tags", "frame_size"} - set(value)
        if missing:
            raise _invalid(
                f"case object missing keys: {', '.join(sorted(missing))}",
                field,
            )
        return SimulationCase(
            name=_require_str(value["name"], f"{field}.name", MAX_CASE_NAME_LEN),
            n_tags=_require_int(value["n_tags"], f"{field}.n_tags", 0, MAX_TAGS),
            frame_size=_require_int(
                value["frame_size"], f"{field}.frame_size", 1, MAX_FRAME_SIZE
            ),
        )
    raise _invalid(f"{field} entries must be case names or objects", field)


def parse_scheme(value: object, field: str = "schemes") -> str:
    """``"crc"`` or ``"qcd-<strength>"`` with strength 1..64."""
    if not isinstance(value, str):
        raise _invalid(f"{field} entries must be strings", field)
    if value == "crc":
        return value
    if value.startswith("qcd-"):
        suffix = value[4:]
        if suffix.isdigit() and 1 <= int(suffix) <= MAX_QCD_STRENGTH:
            # Canonical form rejects leading zeros ("qcd-08" != "qcd-8").
            if str(int(suffix)) == suffix:
                return value
    raise _invalid(
        f"unknown scheme {value!r} (expected 'crc' or 'qcd-<1..{MAX_QCD_STRENGTH}>')",
        field,
    )


@dataclass(frozen=True)
class GridPoint:
    """One (case, protocol, scheme) cell of a job's evaluation grid."""

    case: SimulationCase
    protocol: str
    scheme: str

    def to_wire(self) -> dict:
        return {
            "case": {
                "name": self.case.name,
                "n_tags": self.case.n_tags,
                "frame_size": self.case.frame_size,
            },
            "protocol": self.protocol,
            "scheme": self.scheme,
        }


@dataclass(frozen=True)
class SimulateRequest:
    """A validated ``POST /v1/simulate`` body."""

    points: tuple[GridPoint, ...]
    rounds: int = 10
    seed: int = 2010
    mode: str = "sync"
    priority: int = 5
    client: str = "anonymous"
    version: int = PROTOCOL_VERSION

    def to_wire(self) -> dict:
        """Canonical wire form (named cases expanded to case objects)."""
        cases: list[dict] = []
        protocols: list[str] = []
        schemes: list[str] = []
        for p in self.points:
            case = GridPoint.to_wire(p)["case"]
            if case not in cases:
                cases.append(case)
            if p.protocol not in protocols:
                protocols.append(p.protocol)
            if p.scheme not in schemes:
                schemes.append(p.scheme)
        return {
            "version": self.version,
            "cases": cases,
            "protocols": protocols,
            "schemes": schemes,
            "rounds": self.rounds,
            "seed": self.seed,
            "mode": self.mode,
            "priority": self.priority,
            "client": self.client,
        }


_REQUEST_KEYS = {
    "version",
    "cases",
    "protocols",
    "schemes",
    "rounds",
    "seed",
    "mode",
    "priority",
    "client",
}
_REQUIRED_KEYS = {"version", "cases", "protocols", "schemes"}


def parse_simulate_request(doc: object) -> SimulateRequest:
    """Validate a decoded JSON body into a :class:`SimulateRequest`.

    Raises :class:`ProtocolError` (always a 4xx) on any malformation; a
    request that parses is safe to admit.  The grid is the cross product
    ``cases x protocols x schemes``; duplicate axis entries are rejected
    so a job never contains the same grid point twice.
    """
    if not isinstance(doc, dict):
        raise _invalid("request body must be a JSON object")
    extra = set(doc) - _REQUEST_KEYS
    if extra:
        raise _invalid(f"unknown keys: {', '.join(sorted(extra))}")
    missing = _REQUIRED_KEYS - set(doc)
    if missing:
        raise _invalid(f"missing keys: {', '.join(sorted(missing))}")

    version = doc["version"]
    if isinstance(version, bool) or not isinstance(version, int):
        raise _invalid("version must be an integer", "version")
    if version != PROTOCOL_VERSION:
        raise ProtocolError(
            "unsupported_version",
            f"protocol version {version} is not supported "
            f"(this server speaks {PROTOCOL_VERSION})",
            field="version",
        )

    cases = [
        parse_case(v)
        for v in _require_list(doc["cases"], "cases", MAX_GRID_POINTS)
    ]
    if len(set(cases)) != len(cases):
        raise _invalid("duplicate entries in cases", "cases")
    protocols = _require_list(doc["protocols"], "protocols", len(PROTOCOLS))
    for p in protocols:
        if p not in PROTOCOLS:
            raise _invalid(
                f"unknown protocol {p!r} (expected one of {PROTOCOLS})",
                "protocols",
            )
    if len(set(protocols)) != len(protocols):
        raise _invalid("duplicate entries in protocols", "protocols")
    schemes = [
        parse_scheme(v)
        for v in _require_list(doc["schemes"], "schemes", MAX_GRID_POINTS)
    ]
    if len(set(schemes)) != len(schemes):
        raise _invalid("duplicate entries in schemes", "schemes")

    n_points = len(cases) * len(protocols) * len(schemes)
    if n_points > MAX_GRID_POINTS:
        raise _invalid(
            f"grid has {n_points} points, more than the "
            f"{MAX_GRID_POINTS}-point request ceiling",
            "cases",
        )

    rounds = _require_int(doc.get("rounds", 10), "rounds", 1, MAX_ROUNDS)
    seed = _require_int(doc.get("seed", 2010), "seed", 0, MAX_SEED)
    mode = doc.get("mode", "sync")
    if mode not in MODES:
        raise _invalid(f"mode must be one of {MODES}", "mode")
    priority = _require_int(
        doc.get("priority", 5), "priority", MIN_PRIORITY, MAX_PRIORITY
    )
    client = _require_str(
        doc.get("client", "anonymous"), "client", MAX_CLIENT_LEN
    )

    points = tuple(
        GridPoint(case=c, protocol=p, scheme=s)
        for c in cases
        for p in protocols
        for s in schemes
    )
    return SimulateRequest(
        points=points,
        rounds=rounds,
        seed=seed,
        mode=mode,
        priority=priority,
        client=client,
        version=version,
    )


def parse_simulate_body(body: bytes) -> SimulateRequest:
    """:func:`parse_simulate_request` over raw request-body bytes."""
    try:
        doc = json.loads(body.decode("utf-8"))
    except (UnicodeDecodeError, ValueError):
        raise ProtocolError(
            "invalid_request", "request body is not valid JSON"
        ) from None
    return parse_simulate_request(doc)


# ----------------------------------------------------------------------
# Response envelopes


def error_envelope(
    exc: ProtocolError, request_id: str | None = None
) -> dict:
    """The JSON error document every non-2xx response carries.

    ``request_id`` mirrors the ``X-Request-Id`` response header into the
    body, so error envelopes stay joinable to traces even when a proxy
    strips custom headers.
    """
    error: dict[str, object] = {"code": exc.code, "message": exc.message}
    if exc.field is not None:
        error["field"] = exc.field
    if exc.retry_after_s is not None:
        error["retry_after_s"] = exc.retry_after_s
    doc: dict[str, object] = {"version": PROTOCOL_VERSION, "error": error}
    if request_id is not None:
        doc["request_id"] = request_id
    return doc


def job_envelope(
    job_id: str,
    state: str,
    n_points: int,
    completed: int,
    request_id: str | None = None,
) -> dict:
    """The ``202 Accepted`` body (and the NDJSON stream's header line).

    ``request_id`` joins the job to the admitting request's trace: the
    NDJSON output of an async job can then be correlated offline with
    the access log, span tree and stage histograms of the ``POST
    /v1/simulate`` that created it.
    """
    doc: dict[str, object] = {
        "version": PROTOCOL_VERSION,
        "type": "job",
        "job_id": job_id,
        "state": state,
        "points": n_points,
        "completed": completed,
        "location": f"/v1/jobs/{job_id}",
    }
    if request_id is not None:
        doc["request_id"] = request_id
    return doc


def result_line(
    point: GridPoint, stats: Mapping[str, object], source: str
) -> dict:
    """One completed grid point (one NDJSON line; NaN already scrubbed).

    ``source`` records where the numbers came from: ``computed`` (a
    kernel run), ``cache`` (the on-disk result cache), ``memo`` (the
    suite's in-memory memo) or ``coalesced`` (deduplicated onto another
    request's in-flight computation).
    """
    return {
        "type": "result",
        "point": point.to_wire(),
        "stats": nan_to_none(dict(stats)),
        "source": source,
    }


def done_line(
    job_id: str, state: str, elapsed_s: float, error: str | None = None
) -> dict:
    """The NDJSON stream's terminal line."""
    doc: dict[str, object] = {
        "type": "done",
        "job_id": job_id,
        "state": state,
        "elapsed_s": elapsed_s if not math.isnan(elapsed_s) else None,
    }
    if error is not None:
        doc["error"] = error
    return doc


def sync_response(
    job_id: str,
    state: str,
    results: Sequence[dict],
    elapsed_s: float,
    request_id: str | None = None,
) -> dict:
    """The ``200 OK`` body of a synchronous simulate call."""
    doc: dict[str, object] = {
        "version": PROTOCOL_VERSION,
        "job_id": job_id,
        "state": state,
        "results": list(results),
        "elapsed_s": elapsed_s,
    }
    if request_id is not None:
        doc["request_id"] = request_id
    return doc
