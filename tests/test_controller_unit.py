"""Unit-level tests of the controller's decision gating, with injected
selector readings (no radio in the loop)."""


from repro.channel.csi import CsiReport
from repro.core.assoc_sync import StaInfo
from repro.core.config import WgttConfig
from repro.core.controller import SELECTION_PERIOD_US, WgttController
from repro.net.backhaul import EthernetBackhaul
from repro.net.packet import Packet
from repro.sim import RngRegistry, Simulator

import numpy as np


def make_controller(**config_kw):
    sim = Simulator()
    backhaul = EthernetBackhaul(sim)
    config = WgttConfig(**config_kw)
    controller = WgttController(sim, backhaul, RngRegistry(1), config)
    sent = []

    for ap_id in ("ap0", "ap1", "ap2"):
        backhaul.register(
            ap_id,
            lambda src, kind, payload, ap=ap_id: sent.append((ap, kind, payload)),
        )
        controller.add_ap(ap_id)
    controller.register_association(
        StaInfo(client="client0", associated_at_us=0, first_ap="ap0")
    )
    return sim, controller, sent


def feed(controller, sim, ap_id, esnr_db, count=6, spacing_us=1500):
    base = sim.now
    for i in range(count):
        report = CsiReport(
            time_us=base + i * spacing_us,
            ap_id=ap_id,
            client_id="client0",
            subcarrier_snr_db=np.full(56, esnr_db),
            rssi_dbm=-60.0,
        )
        controller._handle_csi(ap_id, report)


class TestSwitchGating:
    def test_switches_to_clearly_better_ap(self):
        sim, controller, sent = make_controller()
        sim.run(until_us=50_000)  # past the initial hysteresis
        feed(controller, sim, "ap0", 10.0)
        feed(controller, sim, "ap1", 20.0)
        sim.run(until_us=60_000)  # selection loop fires
        stops = [(ap, p) for ap, kind, p in sent if kind == "stop"]
        assert stops and stops[0][0] == "ap0"
        assert stops[0][1].target_ap == "ap1"

    def test_margin_blocks_marginal_challenger(self):
        sim, controller, sent = make_controller(switch_margin_db=3.0)
        sim.run(until_us=50_000)
        feed(controller, sim, "ap0", 18.0)
        feed(controller, sim, "ap1", 19.0)  # only +1 dB
        sim.run(until_us=80_000)
        assert not [1 for _, kind, _ in sent if kind == "stop"]

    def test_hysteresis_blocks_early_switch(self):
        sim, controller, sent = make_controller(time_hysteresis_us=10**9)
        sim.run(until_us=50_000)
        feed(controller, sim, "ap0", 5.0)
        feed(controller, sim, "ap1", 30.0)
        sim.run(until_us=200_000)
        assert not [1 for _, kind, _ in sent if kind == "stop"]

    def test_no_second_switch_while_pending(self):
        sim, controller, sent = make_controller()
        sim.run(until_us=50_000)
        feed(controller, sim, "ap0", 5.0)
        feed(controller, sim, "ap1", 30.0)
        sim.run(until_us=55_000)
        # no ack ever comes back (our fake APs are silent), so the
        # coordinator stays busy; feeding an even better ap2 must not
        # start a second switch.
        feed(controller, sim, "ap2", 40.0)
        sim.run(until_us=75_000)
        stops = [1 for _, kind, _ in sent if kind == "stop"]
        # only retransmissions of the same switch may appear
        targets = {p.target_ap for _, kind, p in sent if kind == "stop"}
        assert targets == {"ap1"}

    def test_unknown_client_csi_ignored(self):
        sim, controller, sent = make_controller()
        report = CsiReport(
            time_us=0,
            ap_id="ap0",
            client_id="ghost",
            subcarrier_snr_db=np.full(56, 20.0),
            rssi_dbm=-50.0,
        )
        controller._handle_csi("ap0", report)  # must not raise


class TestDownlinkGating:
    def test_unassociated_client_dropped(self):
        sim, controller, sent = make_controller()
        controller.accept_downlink(Packet("server", "ghost", 1000))
        assert controller.stats["downlink_unassociated"] == 1

    def test_serving_always_in_fanout(self):
        sim, controller, sent = make_controller()
        controller.accept_downlink(Packet("server", "client0", 1000))
        sim.run(until_us=10_000)
        data = [(ap, p) for ap, kind, p in sent if kind == "data"]
        assert [ap for ap, _ in data] == ["ap0"]

    def test_candidates_join_fanout(self):
        sim, controller, sent = make_controller()
        sim.run(until_us=50_000)
        feed(controller, sim, "ap1", 15.0, count=2)
        controller.accept_downlink(Packet("server", "client0", 1000))
        sim.run(until_us=60_000)
        data_aps = {ap for ap, kind, _ in sent if kind == "data"}
        assert data_aps == {"ap0", "ap1"}


class TestFailoverRetry:
    """The selection tick is the failover's retry loop: while the
    serving AP is dead and no handshake is in flight, every tick hunts
    for a live AP again."""

    def test_no_candidate_schedules_retry(self):
        sim, controller, sent = make_controller()
        sim.run(until_us=50_000)
        controller._ap_down("ap0")  # serving AP dies, nobody heard client0
        assert controller.stats["failover_no_candidate"] == 1
        sim.run(until_us=sim.now + SELECTION_PERIOD_US)
        assert controller.stats["failover_no_candidate"] == 2

    def test_retry_keeps_rescheduling_until_exhaustion_never_happens(self):
        """Each barren tick counts a failover_no_candidate; none is the
        last."""
        sim, controller, sent = make_controller()
        sim.run(until_us=50_000)
        controller._ap_down("ap0")
        sim.run(until_us=sim.now + 4 * SELECTION_PERIOD_US + 1_000)
        assert controller.stats["failover_no_candidate"] == 5
        assert controller.stats["failovers_initiated"] == 0

    def test_retry_recovers_when_a_live_ap_hears_the_client(self):
        sim, controller, sent = make_controller()
        sim.run(until_us=50_000)
        controller._ap_down("ap0")
        assert controller.stats["failovers_initiated"] == 0
        feed(controller, sim, "ap1", 20.0)
        sim.run(until_us=sim.now + 2 * SELECTION_PERIOD_US + 1_000)
        assert controller.stats["failovers_initiated"] == 1
        failover_targets = [ap for ap, kind, _ in sent if kind == "failover"]
        assert "ap1" in failover_targets

    def test_aborted_failover_is_retried(self):
        """A failover handshake that dies leaves the client on its dead
        AP: the next tick starts another."""
        sim, controller, sent = make_controller()
        sim.run(until_us=50_000)
        feed(controller, sim, "ap1", 20.0)
        controller._ap_down("ap0")
        assert controller.stats["failovers_initiated"] == 1
        controller.coordinator.abort("client0")
        sim.run(until_us=sim.now + SELECTION_PERIOD_US)
        assert controller.stats["failovers_initiated"] == 2
        assert controller.coordinator.busy("client0")

    def test_target_dying_mid_retry_is_survived(self):
        """The AP the retry would have picked dies before the tick: the
        retry must skip it and keep hunting, not crash or start a
        handshake with a corpse."""
        sim, controller, sent = make_controller()
        sim.run(until_us=50_000)
        controller._ap_down("ap0")
        feed(controller, sim, "ap1", 20.0)  # ap1 becomes the candidate
        controller._ap_down("ap1")  # ... and dies before the retry fires
        barren = controller.stats["failover_no_candidate"]
        sim.run(until_us=sim.now + 3 * SELECTION_PERIOD_US + 1_000)
        handshake_targets = {
            p.target_ap for _, kind, p in sent if kind == "stop"
        } | {ap for ap, kind, _ in sent if kind == "failover"}
        assert "ap1" not in handshake_targets
        assert controller.stats["failover_no_candidate"] > barren

    def test_retry_noop_after_client_departs(self):
        sim, controller, sent = make_controller()
        sim.run(until_us=50_000)
        controller._ap_down("ap0")
        barren = controller.stats["failover_no_candidate"]
        controller.deregister_client("client0")
        sim.run(until_us=sim.now + 3 * SELECTION_PERIOD_US + 1_000)  # must not raise
        assert controller.stats["failover_no_candidate"] == barren

    def test_retry_noop_after_controller_crash(self):
        sim, controller, sent = make_controller()
        sim.run(until_us=50_000)
        controller._ap_down("ap0")
        barren = controller.stats["failover_no_candidate"]
        controller.crash()
        sim.run(until_us=sim.now + 3 * SELECTION_PERIOD_US + 1_000)  # must not raise
        assert not controller.tracked_clients()
        assert controller.stats["failover_no_candidate"] == barren


class TestClientDeparture:
    """deregister_client: every per-client resource is freed (the
    unbounded-growth fix for one-ride commuters)."""

    def test_departure_frees_every_store(self):
        sim, controller, sent = make_controller()
        sim.run(until_us=50_000)
        feed(controller, sim, "ap0", 15.0)
        controller.accept_downlink(Packet("server", "client0", 1000))
        assert controller._index_alloc.tracked_clients() == 1
        selection = controller.client_state("client0").selection_timer
        controller.deregister_client("client0")
        assert not controller.tracks("client0")
        assert controller._index_alloc.tracked_clients() == 0
        assert not selection.armed
        assert "client0" not in controller._last_heard
        assert not controller.directory.is_associated("client0")
        assert controller.stats["clients_departed"] == 1

    def test_departure_broadcast_reaches_every_ap(self):
        sim, controller, sent = make_controller()
        controller.deregister_client("client0")
        sim.run(until_us=sim.now + 10_000)
        departed = {
            ap for ap, kind, p in sent
            if kind == "client-departed" and p == "client0"
        }
        assert departed == {"ap0", "ap1", "ap2"}

    def test_departure_of_unknown_client_is_safe(self):
        sim, controller, sent = make_controller()
        controller.deregister_client("ghost")  # must not raise
        assert controller.stats["clients_departed"] == 0

    def test_csi_after_departure_does_not_resurrect(self):
        sim, controller, sent = make_controller()
        controller.deregister_client("client0")
        feed(controller, sim, "ap1", 25.0)
        sim.run(until_us=sim.now + 60_000)
        assert not controller.tracks("client0")
