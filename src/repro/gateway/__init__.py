"""``repro.gateway`` -- the binary wire plane for simulated reader fleets.

Real RFID readers speak compact binary TCP protocols (LLRP, or vendor
framings like the CL7206C2's ``0xAA`` packets), not JSON.  This package
adds that plane to the reproduction stack:

* :mod:`repro.gateway.codec`   -- the frame codec: typed commands,
  CRC-16/BUYPASS trailers, and an incremental reassembler that turns
  arbitrary byte streams (torn reads, garbage, bad CRCs) into frames
  and typed errors;
* :mod:`repro.gateway.readers` -- the spec -> deterministic inventory
  funnel shared by the gateway and the differential tests;
* :mod:`repro.gateway.gateway` -- ``repro-gateway``, the asyncio TCP
  server fronting N simulated readers running real
  :class:`~repro.sim.reader.Reader` inventories;
* :mod:`repro.gateway.client`  -- a blocking client with reconnect and
  report iteration;
* :mod:`repro.gateway.sinks`   -- CSV / NDJSON tag-report recorders.

See ``docs/GATEWAY.md`` for the frame format and a session walkthrough.
"""

from repro.gateway.codec import (
    Capabilities,
    ErrorFrame,
    Frame,
    FrameError,
    FrameReassembler,
    GetCapabilities,
    InventoryComplete,
    InventoryStarted,
    InventoryStopped,
    Keepalive,
    KeepaliveAck,
    StartInventory,
    StopInventory,
    TagReport,
    decode_frame,
    encode_frame,
)

__all__ = [
    "Frame",
    "FrameError",
    "FrameReassembler",
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
    "encode_frame",
    "decode_frame",
    "GatewayApp",
    "GatewayConfig",
]


def __getattr__(name: str):
    # The server module is imported on first use, not with the package:
    # ``python -m repro.gateway.gateway`` would otherwise find it already
    # in ``sys.modules`` and warn before running it as ``__main__``.
    if name in ("GatewayApp", "GatewayConfig"):
        from repro.gateway import gateway

        return getattr(gateway, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
