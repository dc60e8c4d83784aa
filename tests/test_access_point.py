"""Focused unit tests for the WGTT access point's protocol behaviour,
using a minimal hand-built testbed (one AP, one parked client)."""


from repro.core.switching import StartMsg, StopMsg
from repro.scenarios.testbed import Testbed, TestbedConfig
from repro.net.packet import Packet
from repro.sim.engine import MS, SECOND


def make(seed=3, start_x=9.5):
    testbed = Testbed(
        TestbedConfig(seed=seed, scheme="wgtt", client_speeds_mph=[0.0],
                      client_start_x_m=start_x, num_aps=2)
    )
    return testbed


class TestStopStart:
    def test_stop_reports_first_unsent_index(self):
        testbed = make()
        ap0 = testbed.wgtt_aps["ap0"]
        captured = {}

        def capture(src, kind, payload):
            if kind == "start":
                captured["msg"] = payload

        testbed.backhaul._handlers["ap1"] = capture
        # Give ap0 a deep backlog it cannot possibly have sent yet.
        source, _ = testbed.add_downlink_udp_flow(0, rate_bps=80e6)
        source.start()
        testbed.run_seconds(0.3)
        backlog_head = ap0.device.session("client0").queue.peek()
        assert backlog_head is not None
        expected_k = backlog_head.meta["wgtt_index"]
        ap0._handle_stop(StopMsg(client="client0", target_ap="ap1", switch_id=1))
        testbed.run_seconds(0.1)  # let the ioctl delay elapse
        message = captured["msg"]
        assert isinstance(message, StartMsg)
        assert message.index == expected_k
        assert message.from_ap == "ap0"
        assert not ap0.is_serving("client0")

    def test_stop_with_empty_queue_reports_cyclic_head(self):
        testbed = make()
        ap0 = testbed.wgtt_aps["ap0"]
        captured = {}
        testbed.backhaul._handlers["ap1"] = (
            lambda src, kind, p: captured.setdefault(kind, p)
        )
        head = ap0.cyclic_queue("client0").head
        ap0._handle_stop(StopMsg(client="client0", target_ap="ap1", switch_id=2))
        testbed.run_seconds(0.1)
        assert captured["start"].index == head

    def test_start_adopts_index_and_acks(self):
        testbed = make()
        ap1 = testbed.wgtt_aps["ap1"]
        acks = []
        original = testbed.backhaul._handlers["controller"]

        def spy(src, kind, payload):
            if kind == "ack":
                acks.append(payload)
            original(src, kind, payload)

        testbed.backhaul._handlers["controller"] = spy
        # Preload the cyclic queue as the controller's fan-out would.
        for i in range(40, 50):
            ap1.cyclic_queue("client0").insert(
                i, Packet("server", "client0", 1000, seq=i)
            )
        ap1._handle_start(
            StartMsg(client="client0", index=45, switch_id=9, from_ap="ap0")
        )
        testbed.run_seconds(0.1)
        assert len(acks) == 1 and acks[0].switch_id == 9
        assert ap1.is_serving("client0")
        session = ap1.device.session("client0")
        # sequence space continues from k (45..) — slots 40-44 dropped
        assert session.scoreboard.window_start >= 45
        assert ap1.cyclic_queue("client0").head >= 45

    def test_drain_window_bounded(self):
        testbed = make()
        ap0 = testbed.wgtt_aps["ap0"]
        source, _ = testbed.add_downlink_udp_flow(0, rate_bps=50e6)
        source.start()
        testbed.run_seconds(0.3)
        ap0._handle_stop(StopMsg(client="client0", target_ap="ap1", switch_id=1))
        session = ap0.device.session("client0")
        assert session.mode == "drain"
        drain = testbed.config.wgtt.nic_drain_us
        testbed.run_seconds((drain + 5 * MS) / SECOND)
        assert session.mode == "off"
        assert session.scoreboard.in_flight() == 0


class TestCsiPath:
    def test_csi_report_reaches_controller_with_esnr(self):
        testbed = make()
        reports = []
        original = testbed.controller._handle_csi
        testbed.controller._handle_csi = lambda r: (reports.append(r), original(r))
        source, _ = testbed.add_uplink_udp_flow(0, rate_bps=2e6)
        source.start()
        testbed.run_seconds(1.0)
        assert reports
        report = reports[0]
        assert report.client_id == "client0"
        assert report.subcarrier_snr_db.shape == (56,)
        assert -20 < report.esnr_db < 45


class TestServingView:
    def test_serving_updates_reach_every_ap(self):
        testbed = make()
        testbed.run_seconds(0.1)
        for ap in testbed.wgtt_aps.values():
            assert ap._serving_view.get("client0") == "ap0"
