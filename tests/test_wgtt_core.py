"""Integration tests for the WGTT controller + AP protocol suite,
running on the full testbed."""

import pytest

from repro.core.config import BSSID
from repro.scenarios.testbed import Testbed, TestbedConfig
from repro.sim.engine import MS


def make_wgtt(seed=3, speed=0.0, start_x=9.5, **config_kw):
    config = TestbedConfig(
        seed=seed,
        scheme="wgtt",
        client_speeds_mph=[speed],
        client_start_x_m=start_x,
        **config_kw,
    )
    return Testbed(config)


class TestAssociation:
    def test_instant_association_installs_everywhere(self):
        testbed = make_wgtt()
        assert testbed.controller.serving_ap("client0") == "ap0"
        for ap in testbed.wgtt_aps.values():
            assert ap.directory.is_associated("client0")
        assert "client0" in testbed.wgtt_aps["ap0"].serving_clients()

    def test_over_the_air_association(self):
        config = TestbedConfig(
            seed=3,
            scheme="wgtt",
            client_speeds_mph=[0.0],
            client_start_x_m=9.5,
            instant_association=False,
        )
        testbed = Testbed(config)
        client = testbed.clients[0]
        client.device.send_mgmt("assoc-req", BSSID)
        testbed.run_seconds(1.0)
        assert testbed.controller.serving_ap("client0") is not None
        admitted = sum(
            1
            for ap in testbed.wgtt_aps.values()
            if ap.directory.is_associated("client0")
        )
        assert admitted == len(testbed.wgtt_aps)

    @pytest.mark.parametrize("seed", [3, 4])
    def test_over_the_air_association_hands_serving_to_an_ap(self, seed):
        """Regression: the controller recorded a serving AP but no AP
        was ever told to serve, so nothing was delivered (two APs admit
        the client at seed 3, one at seed 4).  The AP the controller
        names in its first serving-update now starts serving."""
        testbed = make_wgtt(seed=seed, instant_association=False)
        testbed.clients[0].device.send_mgmt("assoc-req", BSSID)
        source, sink = testbed.add_downlink_udp_flow(0, rate_bps=2e6)
        source.start()
        testbed.run_seconds(1.0)
        serving = [
            ap.ap_id
            for ap in testbed.wgtt_aps.values()
            if "client0" in ap.serving_clients()
        ]
        assert serving == [testbed.controller.serving_ap("client0")]
        assert sink.packets_received() >= 0.9 * source.packets_sent

    def test_unassociated_downlink_dropped(self):
        config = TestbedConfig(
            seed=3, scheme="wgtt", instant_association=False,
            client_speeds_mph=[0.0],
        )
        testbed = Testbed(config)
        from repro.net.packet import Packet

        testbed.controller.accept_downlink(Packet("server", "client0", 100))
        assert testbed.controller.stats["downlink_unassociated"] == 1


class TestDownlinkFanout:
    def test_fanout_covers_candidates_and_serving(self):
        testbed = make_wgtt(start_x=13.75)  # between ap0 and ap1
        source, sink = testbed.add_downlink_udp_flow(0, rate_bps=10e6)
        source.start()
        testbed.run_seconds(2.0)
        ap0 = testbed.wgtt_aps["ap0"]
        ap1 = testbed.wgtt_aps["ap1"]
        # both neighbours held copies in their cyclic queues
        assert ap0.cyclic_queue("client0").occupancy() + ap0.stats["csi_reports"] > 0
        inserted_ap1 = (
            ap1.cyclic_queue("client0").occupancy()
            + ap1.cyclic_queue("client0").head
        )
        assert inserted_ap1 > 0

    def test_downlink_delivery_end_to_end(self):
        testbed = make_wgtt()
        sender, receiver = testbed.add_downlink_tcp_flow(0)
        sender.start()
        testbed.run_seconds(3.0)
        assert sender.throughput_mbps(testbed.sim.now) > 3.0
        # acks may still be in flight at snapshot time
        assert receiver.rcv_nxt >= sender.snd_una


class TestSwitching:
    def test_moving_client_triggers_switches(self):
        testbed = make_wgtt(speed=15.0, start_x=6.0)
        sender, _ = testbed.add_downlink_tcp_flow(0)
        sender.start()
        testbed.run_seconds(6.0)
        history = testbed.controller.coordinator.history
        assert len(history) >= 3
        # switches move forward along the road on balance
        first, last = history[0], history[-1]
        assert int(last.to_ap[2:]) > int(first.to_ap[2:])

    def test_switch_durations_in_table1_band(self):
        testbed = make_wgtt(speed=15.0, start_x=6.0)
        source, _ = testbed.add_downlink_udp_flow(0, rate_bps=40e6)
        source.start()
        testbed.run_seconds(6.0)
        durations = testbed.controller.switch_durations_ms()
        assert durations
        mean = sum(durations) / len(durations)
        assert 10.0 < mean < 25.0  # paper: 17-21 ms

    def test_hysteresis_respected(self):
        testbed = make_wgtt(speed=15.0, start_x=6.0)
        source, _ = testbed.add_downlink_udp_flow(0, rate_bps=40e6)
        source.start()
        testbed.run_seconds(6.0)
        starts = [r.started_us for r in testbed.controller.coordinator.history]
        gaps = [b - a for a, b in zip(starts, starts[1:])]
        hysteresis = testbed.config.wgtt.time_hysteresis_us
        assert all(g >= hysteresis - 5 * MS for g in gaps)

    def test_sequence_space_continues_across_switch(self):
        """After stop/start the incoming AP adopts k as its next MAC
        seq, so the client's reorder state stays valid (the shared
        block-ACK state contribution)."""
        testbed = make_wgtt(speed=15.0, start_x=6.0)
        sender, receiver = testbed.add_downlink_tcp_flow(0)
        sender.start()
        testbed.run_seconds(6.0)
        assert len(testbed.controller.coordinator.history) >= 2
        # TCP made continuous forward progress through the switches
        assert sender.snd_una > 1000
        client = testbed.clients[0]
        reorder = client.device.reorder_buffer(BSSID)
        serving = testbed.controller.serving_ap("client0")
        session = testbed.wgtt_aps[serving].device.session("client0")
        from repro.mac.frames import seq_distance

        # client's expectation within one BA window of the serving AP
        gap = seq_distance(reorder.next_expected, session.scoreboard.next_seq)
        assert gap < 512


class TestUplinkDiversityAndDedup:
    def test_duplicates_removed_at_controller(self):
        testbed = make_wgtt(start_x=11.0)  # in-cell, neighbours overhear
        source, sink = testbed.add_uplink_udp_flow(0, rate_bps=5e6)
        source.start()
        testbed.run_seconds(3.0)
        dedup = testbed.controller.dedup
        assert dedup.accepted > 100
        # the server saw no duplicates even if APs forwarded extras
        assert sink.duplicates == 0

    def test_csi_reports_flow_to_controller(self):
        testbed = make_wgtt()
        source, _ = testbed.add_uplink_udp_flow(0, rate_bps=2e6)
        source.start()
        testbed.run_seconds(2.0)
        assert testbed.controller.stats["csi_reports"] > 50


class TestBaForwarding:
    def test_overheard_bas_forwarded_and_applied(self):
        testbed = make_wgtt(speed=15.0, start_x=6.0)
        sender, _ = testbed.add_downlink_tcp_flow(0)
        sender.start()
        testbed.run_seconds(8.0)
        forwarded = sum(
            ap.stats["ba_forwarded"] for ap in testbed.wgtt_aps.values()
        )
        applied = sum(
            ap.stats["ba_forward_applied"] for ap in testbed.wgtt_aps.values()
        )
        assert forwarded > 0
        assert applied >= 0  # applied when the serving AP missed the BA

    def test_duplicate_forwarded_bas_dropped(self):
        testbed = make_wgtt(speed=15.0, start_x=6.0)
        sender, _ = testbed.add_downlink_tcp_flow(0)
        sender.start()
        testbed.run_seconds(8.0)
        dupes = sum(
            ap.stats["ba_forward_duplicate"] for ap in testbed.wgtt_aps.values()
        )
        assert dupes >= 0  # machinery exercised without error


class TestNicDrain:
    def test_stopped_ap_goes_silent_after_drain(self):
        testbed = make_wgtt(speed=15.0, start_x=6.0)
        source, _ = testbed.add_downlink_udp_flow(0, rate_bps=40e6)
        source.start()
        testbed.run_seconds(4.0)
        # every non-serving AP session must be drained/off by now
        serving = testbed.controller.serving_ap("client0")
        for ap_id, ap in testbed.wgtt_aps.items():
            session = ap.device._sessions.get("client0")
            if session is None or ap_id == serving:
                continue
            if ap.stats["stops_handled"] > 0:
                assert session.mode in ("off", "drain")
                if session.mode == "off":
                    assert session.scoreboard.in_flight() == 0
