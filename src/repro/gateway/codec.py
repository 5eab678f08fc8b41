"""Binary frame codec for the reader gateway (LLRP-shaped wire format).

Real RFID deployments do not speak JSON: readers hang off per-device TCP
connections carrying a compact binary framing (LLRP for standards-track
readers, vendor protocols like the CL7206C2's ``0xAA``-framed packets for
everything else).  This module implements that wire plane for the
simulated reader fleet:

Frame layout (big-endian throughout)::

    +--------+------+------+--------+--------+--------------+--------+
    | Header | CMD  | SUB  |  LEN (u16)      |  payload     | CRC-16 |
    |  0xAA  | 1 B  | 1 B  |  Hi    |  Lo    |  LEN bytes   | Hi  Lo |
    +--------+------+------+--------+--------+--------------+--------+

* ``LEN`` is the payload length only (0..:data:`MAX_PAYLOAD`).
* The CRC-16 trailer is CRC-16/BUYPASS (poly 0x8005, init 0x0000;
  :data:`repro.bits.crc.CRC16_BUYPASS`) over CMD..payload -- the sync
  byte and the trailer itself are excluded, exactly like the CL7206C2
  firmware computes ``CRC16_CalculateBuf(buf+1, len-1)``.

Every command is a typed dataclass with a symmetric
``encode``/``decode`` pair; :func:`encode_frame` and :func:`decode_frame`
round-trip any frame bit-exactly (pinned by
``tests/data/golden_gateway_frames.json``).  Malformed input *never*
raises anything but :class:`FrameError` -- the gateway turns those into
typed ERROR frames instead of dying, and the Hypothesis suite in
``tests/gateway/test_codec_properties.py`` holds it to that.

:class:`FrameReassembler` is the incremental receive side: it tolerates
torn TCP reads (a frame split at every byte boundary reassembles
identically), garbage between frames (scan to the next sync byte), bad
CRCs and oversized lengths (typed error, resync one byte past the false
sync), so a byte stream can never wedge or crash a connection.
"""

from __future__ import annotations

import struct
from dataclasses import dataclass
from typing import Callable, Iterator, Union

from repro.bits.crc import CRC16_BUYPASS, CrcEngine

__all__ = [
    "HEADER_BYTE",
    "MAX_PAYLOAD",
    "PROTOCOL_CODES",
    "DETECTOR_KINDS",
    "ERROR_CODES",
    "FrameError",
    "Frame",
    "GetCapabilities",
    "Capabilities",
    "StartInventory",
    "InventoryStarted",
    "StopInventory",
    "InventoryStopped",
    "Keepalive",
    "KeepaliveAck",
    "TagReport",
    "InventoryComplete",
    "ErrorFrame",
    "crc16",
    "encode_scheme",
    "decode_scheme",
    "encode_frame",
    "decode_frame",
    "FrameReassembler",
]

#: Frame sync byte (CL7206C2 heritage).
HEADER_BYTE = 0xAA

#: Upper bound on the LEN field.  Anything larger is a malformed frame
#: (``bad_length``), which also bounds the reassembler's buffer: a
#: hostile stream cannot make the gateway buffer unboundedly.
MAX_PAYLOAD = 4096

#: Frame overhead: header + cmd + sub + len(2) ... crc(2).
_HEAD_LEN = 5
_TRAILER_LEN = 2

#: Wire codes for the anti-collision protocol a START_INVENTORY runs.
PROTOCOL_CODES = {"fsa": 0x00, "dfsa": 0x01}
_PROTOCOL_NAMES = {v: k for k, v in PROTOCOL_CODES.items()}

#: Wire codes for the collision-detection scheme (paper: CRC-CD vs QCD).
DETECTOR_KINDS = {"crc": 0x00, "qcd": 0x01}
_DETECTOR_NAMES = {v: k for k, v in DETECTOR_KINDS.items()}

#: Typed ERROR frame codes (the binary-plane analogue of the serve
#: tier's JSON error envelope codes).
ERROR_CODES = {
    "malformed_frame": 0x01,
    "bad_crc": 0x02,
    "unsupported": 0x03,
    "busy": 0x04,
    "bad_param": 0x05,
    "draining": 0x06,
    "internal": 0x07,
}
_ERROR_NAMES = {v: k for k, v in ERROR_CODES.items()}

_CRC = CrcEngine(CRC16_BUYPASS, method="table")


def crc16(data: bytes) -> int:
    """The frame trailer CRC: CRC-16/BUYPASS over CMD..payload."""
    return _CRC.compute_bytes(data)


class FrameError(Exception):
    """Typed decode failure.  ``code`` is one of :data:`ERROR_CODES`'
    frame-level keys (``malformed_frame`` / ``bad_crc`` / ``unsupported``)
    and survives the trip into an ERROR frame."""

    def __init__(self, code: str, message: str) -> None:
        if code not in ERROR_CODES:
            raise ValueError(f"unknown frame error code {code!r}")
        super().__init__(message)
        self.code = code
        self.message = message


def encode_scheme(scheme: str) -> tuple[int, int]:
    """``"crc"`` / ``"qcd-<s>"`` -> the wire ``(kind, strength)`` pair."""
    if scheme == "crc":
        return DETECTOR_KINDS["crc"], 0
    if scheme.startswith("qcd-"):
        suffix = scheme[4:]
        if suffix.isdigit() and 1 <= int(suffix) <= 64:
            return DETECTOR_KINDS["qcd"], int(suffix)
    raise ValueError(f"unknown scheme {scheme!r} (expected 'crc' or 'qcd-<1..64>')")


def decode_scheme(kind: int, strength: int) -> str:
    """Inverse of :func:`encode_scheme`; raises :class:`FrameError`."""
    if kind == DETECTOR_KINDS["crc"] and strength == 0:
        return "crc"
    if kind == DETECTOR_KINDS["qcd"] and 1 <= strength <= 64:
        return f"qcd-{strength}"
    raise FrameError(
        "bad_param",
        f"invalid detector (kind={kind}, strength={strength})",
    )


# ----------------------------------------------------------------------
# Typed commands
#
# CMD groups follow the CL7206C2 convention (management / RF / reports);
# SUB 0x00 is the request direction, SUB 0x80 the reply/report
# direction, so a sniffer can classify traffic from two bytes.


@dataclass(frozen=True)
class GetCapabilities:
    """Client -> gateway: describe yourself (LLRP GET_READER_CAPABILITIES)."""

    CMD = 0x01
    SUB = 0x00

    def payload(self) -> bytes:
        return b""

    @classmethod
    def decode(cls, payload: bytes) -> "GetCapabilities":
        _expect_len(cls, payload, 0)
        return cls()


@dataclass(frozen=True)
class Capabilities:
    """Gateway -> client: fleet shape and supported parameter space."""

    CMD = 0x01
    SUB = 0x80
    _FMT = ">BBHHBBB"

    version: int
    n_readers: int
    max_tags: int
    max_frame_size: int
    protocols: tuple[str, ...] = ("fsa", "dfsa")
    detectors: tuple[str, ...] = ("crc", "qcd")
    max_qcd_strength: int = 64

    def payload(self) -> bytes:
        proto_mask = 0
        for name in self.protocols:
            proto_mask |= 1 << PROTOCOL_CODES[name]
        det_mask = 0
        for name in self.detectors:
            det_mask |= 1 << DETECTOR_KINDS[name]
        return struct.pack(
            self._FMT,
            self.version,
            self.n_readers,
            self.max_tags,
            self.max_frame_size,
            proto_mask,
            det_mask,
            self.max_qcd_strength,
        )

    @classmethod
    def decode(cls, payload: bytes) -> "Capabilities":
        fields = _unpack(cls, cls._FMT, payload)
        version, n_readers, max_tags, max_frame, pmask, dmask, qcd = fields
        protocols = tuple(
            name for name, bit in PROTOCOL_CODES.items() if pmask & (1 << bit)
        )
        detectors = tuple(
            name for name, bit in DETECTOR_KINDS.items() if dmask & (1 << bit)
        )
        return cls(
            version=version,
            n_readers=n_readers,
            max_tags=max_tags,
            max_frame_size=max_frame,
            protocols=protocols,
            detectors=detectors,
            max_qcd_strength=qcd,
        )


@dataclass(frozen=True)
class StartInventory:
    """Client -> gateway: run one inventory on a simulated reader.

    ``seed`` pins the population *and* every RNG substream, so the tag
    IDs streamed back are field-identical to a direct
    :meth:`repro.sim.reader.Reader.run_inventory` with the same spec.
    """

    CMD = 0x02
    SUB = 0x00
    _FMT = ">BBBBHHQ"

    reader_id: int
    protocol: str  # "fsa" | "dfsa"
    scheme: str  # "crc" | "qcd-<s>"
    frame_size: int
    n_tags: int
    seed: int

    def payload(self) -> bytes:
        kind, strength = encode_scheme(self.scheme)
        return struct.pack(
            self._FMT,
            self.reader_id,
            PROTOCOL_CODES[self.protocol],
            kind,
            strength,
            self.frame_size,
            self.n_tags,
            self.seed,
        )

    @classmethod
    def decode(cls, payload: bytes) -> "StartInventory":
        fields = _unpack(cls, cls._FMT, payload)
        reader_id, proto_code, kind, strength, frame_size, n_tags, seed = fields
        protocol = _PROTOCOL_NAMES.get(proto_code)
        if protocol is None:
            raise FrameError(
                "unsupported", f"unknown protocol code 0x{proto_code:02X}"
            )
        return cls(
            reader_id=reader_id,
            protocol=protocol,
            scheme=decode_scheme(kind, strength),
            frame_size=frame_size,
            n_tags=n_tags,
            seed=seed,
        )


@dataclass(frozen=True)
class InventoryStarted:
    """Gateway -> client: the reader accepted the inventory."""

    CMD = 0x02
    SUB = 0x80
    _FMT = ">BH"

    reader_id: int
    session: int

    def payload(self) -> bytes:
        return struct.pack(self._FMT, self.reader_id, self.session)

    @classmethod
    def decode(cls, payload: bytes) -> "InventoryStarted":
        return cls(*_unpack(cls, cls._FMT, payload))


@dataclass(frozen=True)
class StopInventory:
    """Client -> gateway: abort the reader's running inventory."""

    CMD = 0x03
    SUB = 0x00
    _FMT = ">B"

    reader_id: int

    def payload(self) -> bytes:
        return struct.pack(self._FMT, self.reader_id)

    @classmethod
    def decode(cls, payload: bytes) -> "StopInventory":
        return cls(*_unpack(cls, cls._FMT, payload))


@dataclass(frozen=True)
class InventoryStopped:
    """Gateway -> client: STOP acknowledged (``session`` 0 = was idle)."""

    CMD = 0x03
    SUB = 0x80
    _FMT = ">BH"

    reader_id: int
    session: int

    def payload(self) -> bytes:
        return struct.pack(self._FMT, self.reader_id, self.session)

    @classmethod
    def decode(cls, payload: bytes) -> "InventoryStopped":
        return cls(*_unpack(cls, cls._FMT, payload))


@dataclass(frozen=True)
class Keepalive:
    """Either direction: liveness probe (LLRP KEEPALIVE)."""

    CMD = 0x10
    SUB = 0x00

    def payload(self) -> bytes:
        return b""

    @classmethod
    def decode(cls, payload: bytes) -> "Keepalive":
        _expect_len(cls, payload, 0)
        return cls()


@dataclass(frozen=True)
class KeepaliveAck:
    CMD = 0x10
    SUB = 0x80

    def payload(self) -> bytes:
        return b""

    @classmethod
    def decode(cls, payload: bytes) -> "KeepaliveAck":
        _expect_len(cls, payload, 0)
        return cls()


@dataclass(frozen=True, slots=True)
class TagReport:
    """Gateway -> client: one tag identified (streamed as slots resolve).

    ``airtime`` is the inventory's simulated clock at the end of the
    identifying slot (units of tau), carried as an IEEE-754 double.
    Slotted: an :class:`~repro.gateway.client.InventorySummary` holds
    one per identified tag.
    """

    CMD = 0x12
    SUB = 0x00
    _FMT = ">BHIIQd"

    reader_id: int
    session: int
    slot: int
    frame: int
    tag_id: int
    airtime: float

    def payload(self) -> bytes:
        return struct.pack(
            self._FMT,
            self.reader_id,
            self.session,
            self.slot,
            self.frame,
            self.tag_id,
            self.airtime,
        )

    @classmethod
    def decode(cls, payload: bytes) -> "TagReport":
        return cls(*_unpack(cls, cls._FMT, payload))


@dataclass(frozen=True)
class InventoryComplete:
    """Gateway -> client: terminal frame of an inventory session."""

    CMD = 0x12
    SUB = 0x80
    _FMT = ">BHIIIId?"

    reader_id: int
    session: int
    identified: int
    lost: int
    slots: int
    frames: int
    airtime: float
    stopped: bool = False

    def payload(self) -> bytes:
        return struct.pack(
            self._FMT,
            self.reader_id,
            self.session,
            self.identified,
            self.lost,
            self.slots,
            self.frames,
            self.airtime,
            self.stopped,
        )

    @classmethod
    def decode(cls, payload: bytes) -> "InventoryComplete":
        return cls(*_unpack(cls, cls._FMT, payload))


@dataclass(frozen=True)
class ErrorFrame:
    """Gateway -> client: a typed refusal; the connection stays up."""

    CMD = 0x7F
    SUB = 0x80

    code: str  # key of ERROR_CODES
    message: str = ""

    def payload(self) -> bytes:
        text = self.message.encode("utf-8")[: MAX_PAYLOAD - 1]
        return bytes([ERROR_CODES[self.code]]) + text

    @classmethod
    def decode(cls, payload: bytes) -> "ErrorFrame":
        if len(payload) < 1:
            raise FrameError(
                "malformed_frame", "ERROR frame payload must be >= 1 byte"
            )
        code = _ERROR_NAMES.get(payload[0])
        if code is None:
            raise FrameError(
                "malformed_frame", f"unknown error code 0x{payload[0]:02X}"
            )
        return cls(code=code, message=payload[1:].decode("utf-8", "replace"))


#: Every frame the wire can carry.
Frame = Union[
    GetCapabilities,
    Capabilities,
    StartInventory,
    InventoryStarted,
    StopInventory,
    InventoryStopped,
    Keepalive,
    KeepaliveAck,
    TagReport,
    InventoryComplete,
    ErrorFrame,
]

_FRAME_TYPES: tuple[type, ...] = (
    GetCapabilities,
    Capabilities,
    StartInventory,
    InventoryStarted,
    StopInventory,
    InventoryStopped,
    Keepalive,
    KeepaliveAck,
    TagReport,
    InventoryComplete,
    ErrorFrame,
)

_DECODERS: dict[tuple[int, int], Callable[[bytes], Frame]] = {
    (cls.CMD, cls.SUB): cls.decode for cls in _FRAME_TYPES
}


def _expect_len(cls: type, payload: bytes, expected: int) -> None:
    if len(payload) != expected:
        raise FrameError(
            "malformed_frame",
            f"{cls.__name__} payload must be {expected} bytes, "
            f"got {len(payload)}",
        )


def _unpack(cls: type, fmt: str, payload: bytes) -> tuple:
    expected = struct.calcsize(fmt)
    _expect_len(cls, payload, expected)
    return struct.unpack(fmt, payload)


# ----------------------------------------------------------------------
# Frame-level encode/decode


def encode_frame(frame: Frame) -> bytes:
    """Frame -> wire bytes (header, length, payload, CRC trailer)."""
    payload = frame.payload()
    if len(payload) > MAX_PAYLOAD:
        raise ValueError(
            f"payload of {type(frame).__name__} exceeds {MAX_PAYLOAD} bytes"
        )
    body = struct.pack(">BBH", frame.CMD, frame.SUB, len(payload)) + payload
    return bytes([HEADER_BYTE]) + body + struct.pack(">H", crc16(body))


def decode_frame(data: bytes) -> Frame:
    """One complete wire frame -> its typed command.

    Raises :class:`FrameError` -- and only :class:`FrameError` -- on any
    malformation: bad sync byte, short frame, LEN mismatch, CRC failure,
    unknown (CMD, SUB), or a payload the command cannot parse.
    """
    if len(data) < _HEAD_LEN + _TRAILER_LEN:
        raise FrameError(
            "malformed_frame", f"frame too short ({len(data)} bytes)"
        )
    if data[0] != HEADER_BYTE:
        raise FrameError(
            "malformed_frame", f"bad header byte 0x{data[0]:02X}"
        )
    cmd, sub, length = struct.unpack(">BBH", data[1:_HEAD_LEN])
    if length > MAX_PAYLOAD:
        raise FrameError(
            "malformed_frame", f"LEN {length} exceeds {MAX_PAYLOAD}"
        )
    if len(data) != _HEAD_LEN + length + _TRAILER_LEN:
        raise FrameError(
            "malformed_frame",
            f"frame is {len(data)} bytes but LEN says "
            f"{_HEAD_LEN + length + _TRAILER_LEN}",
        )
    body = data[1 : _HEAD_LEN + length]
    (got_crc,) = struct.unpack(">H", data[-_TRAILER_LEN:])
    want_crc = crc16(body)
    if got_crc != want_crc:
        raise FrameError(
            "bad_crc",
            f"CRC mismatch: frame carries 0x{got_crc:04X}, "
            f"computed 0x{want_crc:04X}",
        )
    decoder = _DECODERS.get((cmd, sub))
    if decoder is None:
        raise FrameError(
            "unsupported", f"unknown command (0x{cmd:02X}, 0x{sub:02X})"
        )
    return decoder(data[_HEAD_LEN : _HEAD_LEN + length])


# ----------------------------------------------------------------------
# Incremental reassembly


class FrameReassembler:
    """Incremental frame extraction from an arbitrary byte stream.

    Feed it whatever ``recv`` returned -- half a frame, three frames and
    a torn fourth, pure garbage -- and it yields, in order, every
    decodable frame plus one :class:`FrameError` per malformed region.
    Invariants (held by the Hypothesis suite):

    * never raises: malformed input comes back as :class:`FrameError`
      *values*;
    * a valid frame stream split at every byte boundary yields the same
      frames as feeding it whole;
    * buffered data is bounded by one maximum-size frame plus whatever
      one ``feed`` call delivered -- LEN is range-checked before any
      buffering decision, so a hostile length cannot pin memory;
    * after an error it resynchronizes at the next plausible sync byte
      (one byte past the false header), so one corrupt frame never takes
      down the rest of the stream.
    """

    def __init__(self) -> None:
        self._buf = bytearray()
        #: Raw bytes skipped while hunting for a sync byte.
        self.garbage_bytes = 0
        #: Totals by outcome, for the gateway's metrics.
        self.frames_ok = 0
        self.frames_bad = 0

    @property
    def pending(self) -> int:
        """Bytes buffered awaiting completion (torn-frame tail)."""
        return len(self._buf)

    def feed(self, data: bytes) -> Iterator[Frame | FrameError]:
        """Consume ``data``; yield complete frames and typed errors."""
        self._buf.extend(data)
        while True:
            # Hunt for the sync byte; bytes before it are line noise.
            start = self._buf.find(HEADER_BYTE)
            if start < 0:
                self.garbage_bytes += len(self._buf)
                self._buf.clear()
                return
            if start > 0:
                self.garbage_bytes += start
                del self._buf[:start]
            if len(self._buf) < _HEAD_LEN:
                return  # torn header; wait for more bytes
            length = (self._buf[3] << 8) | self._buf[4]
            if length > MAX_PAYLOAD:
                self.frames_bad += 1
                yield FrameError(
                    "malformed_frame",
                    f"LEN {length} exceeds {MAX_PAYLOAD}",
                )
                del self._buf[:1]  # false sync; rescan one byte later
                continue
            total = _HEAD_LEN + length + _TRAILER_LEN
            if len(self._buf) < total:
                return  # torn frame; wait for more bytes
            raw = bytes(self._buf[:total])
            try:
                frame = decode_frame(raw)
            except FrameError as exc:
                self.frames_bad += 1
                yield exc
                # The "frame" may have been a false sync on garbage that
                # contained 0xAA: drop only the sync byte and rescan, so
                # a real frame inside the window is still recovered.
                del self._buf[:1]
                continue
            self.frames_ok += 1
            del self._buf[:total]
            yield frame

    def finish(self) -> FrameError | None:
        """EOF: a non-empty buffer is a truncated trailing frame."""
        if not self._buf:
            return None
        pending = len(self._buf)
        self._buf.clear()
        self.frames_bad += 1
        return FrameError(
            "malformed_frame",
            f"stream ended mid-frame ({pending} bytes buffered)",
        )
