"""End-to-end gateway tests: wire-vs-direct identity, refusals, stop,
fault injection, drain, metrics, and live-socket fuzz.

The headline acceptance property: an inventory streamed over the binary
wire is *field-identical* to the same spec run directly through
:class:`repro.sim.reader.Reader` -- same identified-tag set, for FSA and
DFSA under both QCD and CRC-CD detection.
"""

from __future__ import annotations

import socket
import time

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from repro.gateway import codec
from repro.gateway.client import (
    GatewayBusy,
    GatewayClosed,
    GatewayRefused,
)
from repro.gateway.gateway import MAX_CONSECUTIVE_ERRORS
from repro.gateway.readers import run_spec
from repro.obs.state import STATE
from repro.sim.metrics import slot_counts
from repro.verify.strategies import malformed_binary_frames


class TestCapabilities:
    def test_capabilities_describe_the_fleet(self, gateway):
        with gateway.client() as client:
            caps = client.capabilities()
        assert caps.version == 1
        assert caps.n_readers == 2
        assert caps.protocols == ("fsa", "dfsa")
        assert caps.detectors == ("crc", "qcd")
        assert caps.max_qcd_strength == 64

    def test_ping(self, gateway):
        with gateway.client() as client:
            client.ping()


class TestWireIdentity:
    """Same spec over the wire and run directly => identical results."""

    @pytest.mark.parametrize("protocol", ["fsa", "dfsa"])
    @pytest.mark.parametrize("scheme", ["qcd-16", "crc"])
    def test_identified_set_matches_direct_run(
        self, gateway, protocol, scheme
    ):
        spec = codec.StartInventory(
            reader_id=0,
            protocol=protocol,
            scheme=scheme,
            frame_size=64,
            n_tags=200,
            seed=42,
        )
        with gateway.client() as client:
            summary = client.run_inventory(
                0, protocol, scheme, 64, 200, 42
            )
        direct = run_spec(spec)
        assert summary.tag_ids == set(direct.identified_ids)
        assert summary.complete is not None
        assert summary.complete.identified == len(direct.identified_ids)
        assert summary.complete.lost == len(direct.lost_ids)
        assert summary.complete.slots == len(direct.trace)
        assert summary.complete.frames == direct.stats.frames
        assert summary.complete.airtime == direct.stats.total_time
        assert not summary.complete.stopped

    def test_report_fields_match_trace(self, gateway):
        spec = codec.StartInventory(
            reader_id=1,
            protocol="fsa",
            scheme="qcd-8",
            frame_size=32,
            n_tags=40,
            seed=7,
        )
        with gateway.client() as client:
            summary = client.run_inventory(1, "fsa", "qcd-8", 32, 40, 7)
        direct = run_spec(spec)
        by_slot = {
            r.index: r
            for r in direct.trace
            if r.identified_tag is not None
        }
        assert len(summary.reports) == len(by_slot)
        for report in summary.reports:
            record = by_slot[report.slot]
            assert report.tag_id == record.identified_tag
            assert report.frame == record.frame
            assert report.airtime == record.end_time


class TestRefusals:
    def test_unknown_reader_is_bad_param(self, gateway):
        with gateway.client() as client:
            with pytest.raises(GatewayRefused) as exc_info:
                client.start_inventory(9, "fsa", "crc", 16, 10, 1)
        assert exc_info.value.code == "bad_param"

    def test_zero_tags_is_bad_param(self, gateway):
        with gateway.client() as client:
            with pytest.raises(GatewayRefused) as exc_info:
                client.start_inventory(0, "fsa", "crc", 16, 0, 1)
        assert exc_info.value.code == "bad_param"

    def test_busy_reader_refuses_second_session(self, gateway):
        with gateway.client() as a, gateway.client() as b:
            a.start_inventory(0, "dfsa", "crc", 16, 2000, 5)
            with pytest.raises(GatewayBusy):
                b.start_inventory(0, "fsa", "crc", 16, 10, 1)
            # The *other* reader stays available.
            b.start_inventory(1, "fsa", "qcd-4", 16, 10, 1)
            for _ in b.iter_reports():
                pass

    def test_server_direction_frame_is_unsupported(self, gateway):
        with gateway.client() as client:
            client.send_frame(
                codec.TagReport(
                    reader_id=0,
                    session=1,
                    slot=0,
                    frame=0,
                    tag_id=1,
                    airtime=0.0,
                )
            )
            frame = client.recv_frame()
        assert isinstance(frame, codec.ErrorFrame)
        assert frame.code == "unsupported"

    def test_malformed_frame_gets_error_and_connection_survives(
        self, gateway
    ):
        with gateway.client() as client:
            client.ping()
            assert client._sock is not None
            client._sock.sendall(b"\xaa\x99\x00\x00\x05hello\xde\xad")
            frame = client.recv_frame()
            assert isinstance(frame, codec.ErrorFrame)
            # Same connection still serves real traffic.
            client.ping()

    def test_error_budget_closes_abusive_connection(self, gateway):
        bad = b"\xaa\x99\x00\x00\x05hello\xde\xad"
        with gateway.client() as client:
            client.ping()
            assert client._sock is not None
            client._sock.sendall(bad * (MAX_CONSECUTIVE_ERRORS + 8))
            with pytest.raises(GatewayClosed):
                while True:
                    frame = client.recv_frame()
                    assert isinstance(frame, codec.ErrorFrame)


class TestStop:
    def test_stop_mid_inventory(self, gateway):
        with gateway.client() as client:
            client.start_inventory(0, "dfsa", "crc", 16, 5000, 11)
            # The STOP lands while the simulation is still computing in
            # its worker thread, so streaming is cut short.
            client.stop(0)
            reports = list(client.iter_reports())
            complete = client.last_complete
            assert complete is not None
            assert complete.stopped
            assert len(reports) < complete.identified
            # The reader is free again immediately.
            summary = client.run_inventory(0, "fsa", "qcd-4", 16, 10, 3)
            assert summary.complete is not None

    def test_stop_idle_reader_acks_session_zero(self, gateway):
        with gateway.client() as client:
            client.send_frame(codec.StopInventory(reader_id=0))
            frame = client.recv_frame()
        assert frame == codec.InventoryStopped(reader_id=0, session=0)


class TestFaultInjection:
    def test_reconnect_resumes_mid_inventory(self, make_gateway):
        """Kill every connection mid-stream: the client reconnects,
        reruns the deterministic spec, dedupes, and the final set is
        field-identical to a direct run."""
        gateway = make_gateway(outbox_frames=8)
        spec = codec.StartInventory(
            reader_id=1,
            protocol="dfsa",
            scheme="crc",
            frame_size=16,
            n_tags=500,
            seed=7,
        )
        state = {"killed": False}

        def on_report(report):
            if not state["killed"]:
                state["killed"] = True
                gateway.drop_connections()
                time.sleep(0.3)  # let the RST land mid-stream

        with gateway.client() as client:
            summary = client.run_inventory(
                1, "dfsa", "crc", 16, 500, 7, on_report=on_report
            )
        direct = run_spec(spec)
        assert state["killed"]
        assert summary.reconnects >= 1
        assert summary.tag_ids == set(direct.identified_ids)
        assert len(summary.reports) == len(direct.identified_ids)

    def test_client_disconnect_does_not_kill_gateway(self, gateway):
        """Slam the connection mid-inventory; the gateway must keep
        serving and free the reader."""
        with gateway.client() as client:
            client.start_inventory(0, "dfsa", "crc", 16, 2000, 13)
            # Read a couple of reports, then vanish without a word.
            client.recv_frame()
            client.close()
        deadline = time.monotonic() + 10
        with gateway.client() as client:
            while True:
                try:
                    client.start_inventory(0, "fsa", "crc", 16, 5, 1)
                    break
                except GatewayBusy:
                    assert time.monotonic() < deadline, "reader never freed"
                    time.sleep(0.05)
            for _ in client.iter_reports():
                pass


class TestDrain:
    def test_draining_refuses_new_inventories(self, make_gateway):
        gateway = make_gateway()
        with gateway.client() as client:
            client.ping()
            assert gateway.app is not None
            gateway.call_soon(gateway.app.begin_drain)
            time.sleep(0.2)
            with pytest.raises((GatewayBusy, GatewayClosed)) as exc_info:
                client.start_inventory(0, "fsa", "crc", 16, 10, 1)
            if isinstance(exc_info.value, GatewayBusy):
                assert exc_info.value.code == "draining"
        gateway.shutdown()

    def test_drain_writes_metrics_snapshot(self, make_gateway, tmp_path):
        import json

        out = tmp_path / "metrics.json"
        gateway = make_gateway(metrics_out=str(out))
        spec = codec.StartInventory(
            reader_id=0,
            protocol="fsa",
            scheme="qcd-16",
            frame_size=16,
            n_tags=20,
            seed=1,
        )
        with gateway.client() as client:
            client.run_inventory(0, "fsa", "qcd-16", 16, 20, 1)
        gateway.shutdown()
        expected = len(run_spec(spec).identified_ids)
        assert expected > 0
        doc = json.loads(out.read_text())
        crc = doc["repro_gateway_crc_failures_total"]["samples"]
        assert crc == [{"labels": {}, "value": 0}]
        out_counts = {
            s["labels"]["cmd"]: s["value"]
            for s in doc["repro_gateway_frames_out_total"]["samples"]
        }
        assert out_counts["TagReport"] == expected
        assert out_counts["InventoryComplete"] == 1


class TestMetrics:
    def test_gateway_metrics_flow(self, gateway):
        spec = codec.StartInventory(
            reader_id=0,
            protocol="fsa",
            scheme="qcd-16",
            frame_size=16,
            n_tags=20,
            seed=1,
        )
        with gateway.client() as client:
            client.run_inventory(0, "fsa", "qcd-16", 16, 20, 1)
        # Snapshot first: the direct run below shares the registry.
        registry = STATE.registry.to_dict()
        direct = run_spec(spec)
        expected = len(direct.identified_ids)
        in_counts = {
            s["labels"]["cmd"]: s["value"]
            for s in registry["repro_gateway_frames_in_total"]["samples"]
        }
        assert in_counts["StartInventory"] == 1
        inventories = registry["repro_gateway_inventories_total"]["samples"]
        assert inventories == [
            {
                "labels": {
                    "protocol": "fsa",
                    "detector": "qcd",
                    "outcome": "done",
                },
                "value": 1,
            }
        ]
        report_hist = registry["repro_gateway_report_seconds"]["samples"]
        assert report_hist[0]["count"] == expected
        # The reader's own instrumentation ran under the same registry,
        # and counted exactly the slots of the direct run's trace.
        for label, detected in (("true_type", False), ("detected_type", True)):
            truth = slot_counts(direct.trace, detected=detected)
            counted = {"IDLE": 0, "SINGLE": 0, "COLLIDED": 0}
            for sample in registry["repro_slots_total"]["samples"]:
                counted[sample["labels"][label]] += sample["value"]
            assert counted == {
                "IDLE": truth.idle,
                "SINGLE": truth.single,
                "COLLIDED": truth.collided,
            }

    def test_crc_failure_is_counted(self, gateway):
        data = bytearray(codec.encode_frame(codec.Keepalive()))
        data[-1] ^= 0x01
        with gateway.client() as client:
            client.ping()
            assert client._sock is not None
            client._sock.sendall(bytes(data))
            frame = client.recv_frame()
            assert isinstance(frame, codec.ErrorFrame)
            assert frame.code == "bad_crc"
        samples = STATE.registry.to_dict()[
            "repro_gateway_crc_failures_total"
        ]["samples"]
        assert samples == [{"labels": {}, "value": 1}]


class TestLiveFuzz:
    """The acceptance fuzz property against a *live* gateway: malformed
    bytes produce typed ERROR frames or a clean close -- the gateway
    never crashes and never emits a frame with an invalid CRC."""

    @settings(
        max_examples=25,
        deadline=None,
        suppress_health_check=[HealthCheck.function_scoped_fixture],
    )
    @given(cases=st.lists(malformed_binary_frames(), min_size=1, max_size=4))
    def test_malformed_blobs_never_crash_the_gateway(self, gateway, cases):
        sock = socket.create_connection(
            ("127.0.0.1", gateway.port), timeout=10
        )
        try:
            for _rule, blob in cases:
                sock.sendall(blob)
            # A valid frame after the noise: if the gateway still
            # answers it, the connection survived; if the error budget
            # closed us, the close must be clean (EOF/RST, no junk).
            sock.sendall(codec.encode_frame(codec.Keepalive()))
            sock.shutdown(socket.SHUT_WR)
            re = codec.FrameReassembler()
            saw_ack = False
            while True:
                try:
                    data = sock.recv(65536)
                except ConnectionError:
                    break  # clean-close path
                if not data:
                    break
                for item in re.feed(data):
                    # Everything the gateway emits decodes: no
                    # malformed bytes, no bad CRCs.
                    assert not isinstance(item, codec.FrameError)
                    assert isinstance(
                        item, (codec.ErrorFrame, codec.KeepaliveAck)
                    )
                    if isinstance(item, codec.KeepaliveAck):
                        saw_ack = True
            assert re.finish() is None
            assert re.frames_bad == 0
        finally:
            sock.close()
        # And the gateway is still alive for the next client.
        with gateway.client() as client:
            client.ping()
