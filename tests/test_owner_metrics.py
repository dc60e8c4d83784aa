"""The owner publishes: every component exposes ``collect_metrics()``
over its own state — keys, lazily exported counters and the
adversary-armed condition included — with no ``Testbed`` in the
picture."""

from repro.channel.antenna import OmniAntenna
from repro.channel.link import ChannelMap, RadioPort
from repro.core.access_point import WgttAccessPoint
from repro.core.assoc_sync import StaInfo
from repro.core.config import WgttConfig
from repro.core.controller import WgttController
from repro.faults.injector import FaultInjector
from repro.faults.plan import FaultPlan, GrayFailure, MsgDuplication
from repro.ha.standby import StandbyController
from repro.mac.medium import WirelessMedium
from repro.mobility.road import Position
from repro.net.backhaul import EthernetBackhaul
from repro.obs.metrics import MetricsRegistry
from repro.phy import per as phy_per
from repro.sim import RngRegistry, Simulator
from repro.sim.rng import seeded_generator


def make_ap(sim=None, backhaul=None):
    sim = sim or Simulator()
    rng = RngRegistry(1)
    cmap = ChannelMap(sim, rng)
    mount = Position(10.0, -12.0, 10.0)
    cmap.register_port(RadioPort("ap0", OmniAntenna(), 20.0, lambda t: mount))
    medium = WirelessMedium(sim, cmap)
    backhaul = backhaul or EthernetBackhaul(sim)
    quiet = WgttConfig(heartbeat_interval_us=0)
    ap = WgttAccessPoint(sim, medium, backhaul, rng, "ap0", quiet)
    return sim, medium, backhaul, ap


class TestBareComponentsPublish:
    def test_backhaul(self):
        sim = Simulator()
        backhaul = EthernetBackhaul(sim)
        backhaul.register("a", lambda src, kind, payload: None)
        backhaul.register("b", lambda src, kind, payload: None)
        backhaul.send("a", "b", "data", object(), size_bytes=100)
        backhaul.send_control("a", "b", "stop", object())
        sim.run()
        assert backhaul.collect_metrics() == {
            "backhaul_messages": 2,
            "backhaul_bytes": 164,
            "backhaul_control_messages": 1,
            "backhaul_fault_dropped": 0,
            "backhaul_loss_dropped": 0,
            "backhaul_messages_by_kind{kind=data}": 1,
            "backhaul_messages_by_kind{kind=stop}": 1,
        }

    def test_medium_and_engine(self):
        sim, medium, _, _ = make_ap()
        sim.schedule(10, lambda: None)
        sim.run(until_us=100)
        assert medium.collect_metrics() == {
            "medium_frames_sent": medium.frames_sent,
            "medium_airtime_us": medium.airtime_us,
        }
        assert sim.collect_metrics() == {
            "engine_events_processed": sim.events_processed,
            "engine_compactions": 0,
        }
        assert sim.events_processed > 0

    def test_phy_memos(self):
        out = phy_per.collect_metrics()
        stats = phy_per.phy_memo_stats()
        assert len(out) == sum(len(fields) for fields in stats.values())
        assert out["phy_memo{memo=esnr,stat=capacity}"] == (
            stats["esnr"]["capacity"]
        )

    def test_controller(self):
        sim = Simulator()
        backhaul = EthernetBackhaul(sim)
        backhaul.register("ap0", lambda src, kind, payload: None)
        controller = WgttController(
            sim, backhaul, RngRegistry(1), WgttConfig()
        )
        controller.add_ap("ap0")
        controller.register_association(
            StaInfo(client="client0", associated_at_us=0, first_ap="ap0")
        )
        out = controller.collect_metrics()
        assert out["controller_tracked_clients"] == 1
        assert out["controller_index_cursors"] == 0
        assert out["switches_completed"] == 0
        assert out["dedup_accepted"] == 0
        assert out["controller_stat{name=heartbeats}"] == 0
        assert "admission_backlog" not in out  # admission is off
        paced = WgttController(
            sim,
            EthernetBackhaul(sim),
            RngRegistry(1),
            WgttConfig(admission_enabled=True),
        )
        assert paced.collect_metrics()["admission_backlog"] == 0

    def test_access_point(self):
        _, _, _, ap = make_ap()
        ap.cyclic_queue("client0")
        out = ap.collect_metrics()
        assert out["ap_cyclic_queues{ap=ap0}"] == ap.cyclic_queue_count() == 1
        assert out["ap_hold_buffer{ap=ap0}"] == ap.hold_buffer_depth() == 0
        assert out["ap_overflow_drops{ap=ap0}"] == 0
        assert out["ap_mpdus_sent{ap=ap0}"] == 0
        assert out["ap_stat{ap=ap0,name=stops_handled}"] == 0

    def test_fault_injector(self):
        sim, _, backhaul, ap = make_ap()

        class Rig:
            pass

        rig = Rig()
        rig.sim, rig.backhaul, rig.rng = sim, backhaul, RngRegistry(1)
        rig.wgtt_aps = {"ap0": ap}
        plan = FaultPlan(
            [GrayFailure(at_us=100, duration_us=100, ap_id="ap0")]
        )
        injector = FaultInjector(rig, plan)
        assert injector.collect_metrics() == {"faults_executed": 0}
        injector.arm()
        sim.run(until_us=150)
        assert injector.collect_metrics() == {
            "faults_executed": 1,
            "faults_gray_windows": 1,
        }


class TestLazyExportPerOwner:
    def test_ap_hardening_counter_hidden_until_it_moves(self):
        _, _, _, ap = make_ap()
        key = "ap_stat{ap=ap0,name=stale_stops}"
        assert "stale_stops" in ap.stats
        assert key not in ap.collect_metrics()
        ap.stats["stale_stops"] += 1
        assert ap.collect_metrics()[key] == 1

    def test_controller_hardening_counter_hidden_until_it_moves(self):
        sim = Simulator()
        controller = WgttController(
            sim, EthernetBackhaul(sim), RngRegistry(1), WgttConfig()
        )
        key = "controller_stat{name=stale_sta_syncs}"
        assert "stale_sta_syncs" in controller.stats
        assert key not in controller.collect_metrics()
        controller.stats["stale_sta_syncs"] += 1
        assert controller.collect_metrics()[key] == 1

    def test_every_lazy_name_is_a_real_counter(self):
        sim = Simulator()
        _, _, backhaul, ap = make_ap(sim)
        owners = [
            ap,
            WgttController(sim, backhaul, RngRegistry(1), WgttConfig()),
            StandbyController(sim, backhaul, RngRegistry(1), WgttConfig()),
        ]
        for owner in owners:
            assert set(owner.LAZY_STATS) <= set(owner.stats)
        assert "stale_warm_updates" in StandbyController.LAZY_STATS

    def test_adversary_keys_only_once_the_latch_is_armed(self):
        sim = Simulator()
        backhaul = EthernetBackhaul(sim)
        controller = WgttController(
            sim, backhaul, RngRegistry(1), WgttConfig()
        )
        registry = MetricsRegistry()
        registry.register_collector(backhaul.collect_metrics)
        registry.register_collector(controller.collect_metrics)
        quiet = registry.snapshot()
        assert not any("adversary" in key for key in quiet)
        assert "switches_stale_acks" not in quiet
        backhaul.open_fault(
            "dup",
            MsgDuplication(at_us=0, duration_us=1, probability=0.5),
            seeded_generator(1),
        )
        armed = registry.snapshot()
        assert armed["backhaul_adversary_duplicated"] == 0
        assert armed["switches_stale_acks"] == 0
        assert set(armed) - set(quiet) == {
            "backhaul_adversary_duplicated",
            "backhaul_adversary_replayed",
            "backhaul_adversary_corrupt_dropped",
            "backhaul_adversary_oneway_dropped",
            "backhaul_adversary_gray_dropped",
            "switches_stale_acks",
        }
