"""Focused unit tests for the WGTT access point's protocol behaviour,
using a minimal hand-built testbed (one AP, one parked client)."""


import pytest

from repro.core.access_point import NIC_DRAIN_US, WgttAccessPoint
from repro.core.controller import CONTROLLER_HEARTBEAT_INTERVAL_US
from repro.core.liveness import HEARTBEAT_MISS_LIMIT
from repro.core.switching import FailoverMsg, StartMsg, StopMsg
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
        ap0._handle_stop("controller", StopMsg(client="client0", target_ap="ap1", switch_id=1))
        testbed.run_seconds(0.1)  # let the ioctl delay elapse
        message = captured["msg"]
        assert isinstance(message, StartMsg)
        assert message.index == expected_k
        assert message.from_ap == "ap0"
        assert "client0" not in ap0.serving_clients()

    def test_stop_with_empty_queue_reports_cyclic_head(self):
        testbed = make()
        ap0 = testbed.wgtt_aps["ap0"]
        captured = {}
        testbed.backhaul._handlers["ap1"] = (
            lambda src, kind, p: captured.setdefault(kind, p)
        )
        head = ap0.cyclic_queue("client0").head
        ap0._handle_stop("controller", StopMsg(client="client0", target_ap="ap1", switch_id=2))
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
            "ap0", StartMsg(client="client0", index=45, switch_id=9, from_ap="ap0")
        )
        testbed.run_seconds(0.1)
        assert len(acks) == 1 and acks[0].switch_id == 9
        assert "client0" in ap1.serving_clients()
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
        ap0._handle_stop("controller", StopMsg(client="client0", target_ap="ap1", switch_id=1))
        session = ap0.device.session("client0")
        assert session.mode == "drain"
        testbed.run_seconds((NIC_DRAIN_US + 5 * MS) / SECOND)
        assert session.mode == "off"
        assert session.scoreboard.in_flight() == 0


    @pytest.mark.parametrize(
        "kind, message",
        [
            ("start", StartMsg(client="client0", index=0, switch_id=7, from_ap="ap0")),
            ("failover", FailoverMsg(client="client0", dead_ap="ap0", switch_id=7)),
        ],
    )
    def test_departure_inside_processing_window_never_adopts(self, kind, message):
        """start and failover share one deferred ack-then-adopt; a
        client-departed landing inside its 3 ms window must cancel it
        (the failover path used to adopt the forgotten rider for good)."""
        testbed = make()
        ap1 = testbed.wgtt_aps["ap1"]
        ap1._on_backhaul("controller", kind, message)
        testbed.run_seconds(0.001)
        ap1._on_backhaul("controller", "client-departed", "client0")
        testbed.run_seconds(0.05)
        assert "client0" not in ap1._serving
        assert ap1.device.session("client0").mode == "off"
        assert ap1.stats["serving_after_departure"] == 1


#: One payload per guarded kind, carrying switch id / epoch ``tag``.
GUARDED_PAYLOADS = {
    "data": lambda tag: ("client0", 7, Packet("server", "client0", 1000)),
    "stop": lambda tag: StopMsg(client="client0", target_ap="ap1", switch_id=tag),
    "start": lambda tag: StartMsg(
        client="client0", index=0, switch_id=tag, from_ap="ap0"
    ),
    "failover": lambda tag: FailoverMsg(
        client="client0", dead_ap="ap0", switch_id=tag
    ),
    "ctrl-takeover": lambda tag: tag,
}


class TestDispatchGuards:
    """The guards run at the one dispatch, straight from the table."""

    def test_every_guarded_kind_has_a_payload_here(self):
        guarded = {k for k, row in WgttAccessPoint.KINDS.items() if any(row[1:])}
        assert guarded == set(GUARDED_PAYLOADS)

    @staticmethod
    def deliver(kind, trip=None):
        """A fresh AP with ``kind``'s handler replaced by a spy; returns
        (handler calls, stats counters that moved) for one message."""
        ap = make().wgtt_aps["ap1"]
        calls = []
        spy = lambda *args: calls.append(args[1:])  # drop the AP itself
        ap.KINDS = {kind: (spy, *WgttAccessPoint.KINDS[kind][1:])}
        if trip is not None:
            trip(ap)
        before = dict(ap.stats)
        ap._on_backhaul("controller", kind, GUARDED_PAYLOADS[kind](5))
        moved = {k: v - before[k] for k, v in ap.stats.items() if v != before[k]}
        return calls, moved

    @pytest.mark.parametrize("kind", sorted(GUARDED_PAYLOADS))
    def test_tripped_guard_bumps_its_counter_and_runs_no_handler(self, kind):
        calls, moved = self.deliver(kind)
        assert len(calls) == 1 and moved == {}  # no guard tripped: handled
        # One way to trip each guard column, against tag 5.
        trips = (
            lambda ap: ap._departed.depart("client0", 0),
            lambda ap: ap._switch_handled.update(client0=9),
            lambda ap: setattr(ap, "_ctrl_epoch", 9),
        )
        for counter, trip in zip(WgttAccessPoint.KINDS[kind][1:], trips):
            if counter is not None:
                assert self.deliver(kind, trip) == ([], {counter: 1})


class TestCsiPath:
    def test_csi_report_reaches_controller_with_esnr(self):
        testbed = make()
        reports = []
        handlers = testbed.controller.handlers
        original = handlers["csi"]
        handlers["csi"] = lambda src, r: (reports.append(r), original(src, r))
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


class TestControllerWatch:
    """Buffer-and-hold: the AP's watch on its controller's heartbeats.

    The 2-AP rig runs no controller heartbeats, so every beat, takeover
    and hello here is delivered by hand through ``_on_backhaul``."""

    #: Silence past this and the AP must be holding.
    DETECT_US = (HEARTBEAT_MISS_LIMIT + 1) * CONTROLLER_HEARTBEAT_INTERVAL_US

    @staticmethod
    def rig():
        """ap0 plus a log of every "probe" forward that reaches a
        controller node, as (controller id, payload)."""
        testbed = make()
        ap = testbed.wgtt_aps["ap0"]
        received = []
        original = testbed.backhaul._handlers["controller"]

        def spy(node):
            def handler(src, kind, payload):
                if kind == "probe":
                    received.append((node, payload))
                elif node == "controller":
                    original(src, kind, payload)

            return handler

        testbed.backhaul._handlers["controller"] = spy("controller")
        testbed.backhaul.register("standby", spy("standby"))
        return testbed, ap, received

    def hold(self, testbed, ap):
        """First heartbeat, then silence until the AP holds."""
        ap._on_backhaul("controller", "ctrl-heartbeat", None)
        start = testbed.sim.now
        testbed.sim.run(
            until_us=start + HEARTBEAT_MISS_LIMIT * CONTROLLER_HEARTBEAT_INTERVAL_US
        )
        assert ap.stats["ctrl_down_detected"] == 0
        testbed.sim.run(until_us=start + self.DETECT_US)
        assert ap.stats["ctrl_down_detected"] == 1

    def test_silence_after_a_heartbeat_holds_and_buffers(self):
        testbed, ap, received = self.rig()
        self.hold(testbed, ap)
        buffered = ap.stats["hold_buffered"]
        for i in range(3):
            ap._forward_to_controller("probe", i, 64)
        testbed.run_seconds(0.05)
        assert received == []
        assert ap.stats["hold_buffered"] == buffered + 3
        assert ap.stats["ctrl_down_detected"] == 1  # one episode, one count

    def test_another_controllers_heartbeat_does_not_end_hold(self):
        testbed, ap, received = self.rig()
        self.hold(testbed, ap)
        ap._on_backhaul("standby", "ctrl-heartbeat", None)
        ap._forward_to_controller("probe", 0, 64)
        testbed.run_seconds(0.05)
        assert received == []
        assert ap.stats["hold_flushed"] == 0

    def test_current_controllers_heartbeat_flushes_in_order(self):
        testbed, ap, received = self.rig()
        self.hold(testbed, ap)
        flushed = ap.stats["hold_flushed"]
        for i in range(3):
            ap._forward_to_controller("probe", i, 64)
        ap._on_backhaul("controller", "ctrl-heartbeat", None)
        testbed.run_seconds(0.05)
        assert received == [("controller", 0), ("controller", 1), ("controller", 2)]
        assert ap.stats["hold_flushed"] == flushed + 3
        # Out of hold: the next forward goes straight out.
        ap._forward_to_controller("probe", 3, 64)
        testbed.run_seconds(0.01)
        assert received[-1] == ("controller", 3)

    def test_newer_takeover_rehomes_and_flushes_to_the_new_controller(self):
        testbed, ap, received = self.rig()
        self.hold(testbed, ap)
        for i in range(2):
            ap._forward_to_controller("probe", i, 64)
        ap._on_backhaul("standby", "ctrl-takeover", 5)
        testbed.run_seconds(0.05)
        assert ap.stats["rehomed"] == 1
        assert received == [("standby", 0), ("standby", 1)]

    def test_hello_without_a_heartbeat_starts_no_watch(self):
        testbed, ap, received = self.rig()
        ap._on_backhaul("controller", "ctrl-takeover", 5)
        testbed.run_seconds(1.0)
        assert ap.stats["ctrl_down_detected"] == 0
        ap._forward_to_controller("probe", 0, 64)
        testbed.run_seconds(0.01)
        assert received == [("controller", 0)]
        assert ap.stats["hold_buffered"] == 0
