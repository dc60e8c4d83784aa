"""Message-level adversary tests: event validation, the backhaul's
duplication / replay / corruption / one-way / gray-failure mechanics,
plan-driven execution through the injector, and determinism."""

import numpy as np
import pytest

from repro.faults import (
    FAULT_CLASSES,
    ApCrash,
    FaultPlan,
    GrayFailure,
    MsgCorruption,
    MsgDuplication,
    OneWayPartition,
    StaleReplay,
)
from repro.net.backhaul import RELIABLE_KINDS, EthernetBackhaul
from repro.sim import Simulator
from repro.sim.rng import RngRegistry


def rng(seed=7):
    return np.random.default_rng(seed)


def window(kind, **fields):
    """A plan event as the backhaul's description of an open window."""
    return kind(at_us=0, duration_us=1, **fields)


class TestAdversaryEventValidation:
    def test_duplication_rejects_bad_probability(self):
        with pytest.raises(ValueError):
            MsgDuplication(at_us=0, duration_us=100, probability=0.0)
        with pytest.raises(ValueError):
            MsgDuplication(at_us=0, duration_us=100, probability=1.5)

    def test_duplication_rejects_nonpositive_copies(self):
        with pytest.raises(ValueError):
            MsgDuplication(at_us=0, duration_us=100, copies=0)

    def test_duplication_rejects_empty_kind_filter(self):
        """An empty filter would match nothing — that's a plan bug, not
        a no-op; ``None`` is the explicit match-everything spelling."""
        with pytest.raises(ValueError):
            MsgDuplication(at_us=0, duration_us=100, kinds=frozenset())

    def test_replay_rejects_nonpositive_count(self):
        with pytest.raises(ValueError):
            StaleReplay(at_us=0, duration_us=100, count=0)

    def test_corruption_rejects_bad_probability(self):
        with pytest.raises(ValueError):
            MsgCorruption(at_us=0, duration_us=100, probability=0.0)

    def test_oneway_rejects_self_loop(self):
        with pytest.raises(ValueError):
            OneWayPartition(at_us=0, duration_us=100, src="a", dst="a")

    def test_gray_failure_needs_some_degradation(self):
        with pytest.raises(ValueError):
            GrayFailure(
                at_us=0, duration_us=100, ap_id="ap0",
                extra_latency_us=0, loss_rate=0.0,
            )
        with pytest.raises(ValueError):
            GrayFailure(at_us=0, duration_us=100, ap_id="ap0", loss_rate=1.1)

    def test_overlapping_oneway_windows_rejected(self):
        """Two windows on the same directed link must not overlap.
        Each heals by its own handle, so the overlap would be harmless;
        it is refused because ``FaultPlan.random`` has always skipped
        such draws, and a plan it cannot draw should not validate."""
        a = OneWayPartition(at_us=0, duration_us=1_000, src="a", dst="b")
        b = OneWayPartition(at_us=500, duration_us=1_000, src="a", dst="b")
        with pytest.raises(ValueError):
            FaultPlan(events=[a, b])

    def test_opposite_direction_oneway_windows_allowed(self):
        """src->dst and dst->src overlapping is just a full partition
        expressed twice — perfectly legal."""
        a = OneWayPartition(at_us=0, duration_us=1_000, src="a", dst="b")
        b = OneWayPartition(at_us=500, duration_us=1_000, src="b", dst="a")
        plan = FaultPlan(events=[a, b])
        assert len(plan.of(OneWayPartition)) == 2

    def test_back_to_back_oneway_windows_allowed(self):
        a = OneWayPartition(at_us=0, duration_us=1_000, src="a", dst="b")
        b = OneWayPartition(at_us=1_000, duration_us=1_000, src="a", dst="b")
        assert len(FaultPlan(events=[a, b])) == 2

    def test_describe_covers_every_adversary_class(self):
        plan = FaultPlan(events=[
            MsgDuplication(at_us=10, duration_us=100,
                           kinds=frozenset({"ack", "stop"})),
            StaleReplay(at_us=20, duration_us=100, count=8),
            MsgCorruption(at_us=30, duration_us=100, probability=0.5),
            OneWayPartition(at_us=40, duration_us=100,
                            src="ap1", dst="controller"),
            GrayFailure(at_us=50, duration_us=100, ap_id="ap2"),
        ])
        lines = plan.describe()
        assert any("dup [ack,stop]" in ln for ln in lines)
        assert any("replay [any] <= 8" in ln for ln in lines)
        assert any("corrupt [any] p=0.5" in ln for ln in lines)
        assert any("oneway ap1-x->controller" in ln for ln in lines)
        assert any("gray ap2" in ln for ln in lines)

    def test_adversary_events_query(self):
        plan = FaultPlan(events=[
            MsgDuplication(at_us=10, duration_us=100),
            GrayFailure(at_us=50, duration_us=100, ap_id="ap2"),
        ])
        assert len(plan.adversary_events()) == 2
        assert len(plan.of(GrayFailure)) == 1


class TestBackhaulDuplication:
    def test_duplicates_delivered_and_counted(self):
        sim = Simulator()
        backhaul = EthernetBackhaul(sim)
        got = []
        backhaul.register("dst", lambda s, k, p: got.append(p))
        backhaul.open_fault(
            "dup", window(MsgDuplication, probability=1.0, copies=2), rng()
        )
        backhaul.send("src", "dst", "ack", "m1")
        sim.run()
        assert got == ["m1", "m1", "m1"]  # original + 2 copies
        assert backhaul.stats.duplicated == 2

    def test_kind_filter_spares_other_kinds(self):
        sim = Simulator()
        backhaul = EthernetBackhaul(sim)
        got = []
        backhaul.register("dst", lambda s, k, p: got.append((k, p)))
        backhaul.open_fault(
            "dup",
            window(MsgDuplication, probability=1.0, kinds={"stop"}),
            rng(),
        )
        backhaul.send("src", "dst", "stop", "s")
        backhaul.send("src", "dst", "data", "d")
        sim.run()
        assert got.count(("stop", "s")) == 2
        assert got.count(("data", "d")) == 1

    def test_clear_duplication_stops_copies(self):
        sim = Simulator()
        backhaul = EthernetBackhaul(sim)
        got = []
        backhaul.register("dst", lambda s, k, p: got.append(p))
        handle = backhaul.open_fault(
            "dup", window(MsgDuplication, probability=1.0), rng()
        )
        backhaul.close_fault(handle)
        backhaul.send("src", "dst", "ack", "m")
        sim.run()
        assert got == ["m"]
        assert backhaul.stats.duplicated == 0

    def test_adversary_armed_flag_sticky(self):
        """The armed flag gates metric export and must stay set even
        after every adversary window closes — a run that was ever
        adversarial is never fingerprint-comparable with a clean one."""
        sim = Simulator()
        backhaul = EthernetBackhaul(sim)
        assert not backhaul.adversary_armed
        handle = backhaul.open_fault(
            "dup", window(MsgDuplication, probability=0.5), rng()
        )
        assert backhaul.adversary_armed
        backhaul.close_fault(handle)
        assert backhaul._faults is None  # state dropped (fast path)
        assert backhaul.adversary_armed  # flag survives


class TestBackhaulReplay:
    def test_capture_and_replay_redelivers(self):
        sim = Simulator()
        backhaul = EthernetBackhaul(sim)
        got = []
        backhaul.register("dst", lambda s, k, p: got.append(p))
        handle = backhaul.open_fault("replay", window(StaleReplay, count=8))
        for i in range(3):
            backhaul.send("src", "dst", "ack", i)
        sim.run()
        assert got == [0, 1, 2]
        replayed = backhaul.close_fault(handle)
        sim.run()
        assert replayed == 3
        assert got == [0, 1, 2, 0, 1, 2]  # replays keep capture order
        assert backhaul.stats.replayed == 3

    def test_capture_buffer_is_bounded(self):
        sim = Simulator()
        backhaul = EthernetBackhaul(sim)
        backhaul.register("dst", lambda s, k, p: None)
        handle = backhaul.open_fault("replay", window(StaleReplay, count=2))
        for i in range(10):
            backhaul.send("src", "dst", "ack", i)
        sim.run()
        assert backhaul.close_fault(handle) == 2

    def test_replay_respects_down_nodes(self):
        """Replays are adversary deliveries but not magic: a crashed or
        partitioned destination still swallows them."""
        sim = Simulator()
        backhaul = EthernetBackhaul(sim)
        got = []
        backhaul.register("dst", lambda s, k, p: got.append(p))
        handle = backhaul.open_fault("replay", window(StaleReplay, count=8))
        backhaul.send("src", "dst", "ack", "m")
        sim.run()
        backhaul.set_node_down("dst", True)
        assert backhaul.close_fault(handle) == 0
        sim.run()
        assert got == ["m"]

    def test_replay_unknown_handle_is_noop(self):
        sim = Simulator()
        backhaul = EthernetBackhaul(sim)
        assert backhaul.close_fault(12345) is None


class TestBackhaulCorruption:
    def test_corruption_drops_with_accounting(self):
        sim = Simulator()
        backhaul = EthernetBackhaul(sim)
        got = []
        backhaul.register("dst", lambda s, k, p: got.append(p))
        backhaul.open_fault(
            "corrupt", window(MsgCorruption, probability=1.0), rng()
        )
        backhaul.send("src", "dst", "start", "m")
        sim.run()
        assert got == []
        assert backhaul.stats.corrupt_dropped == 1

    def test_corruption_kind_filter(self):
        sim = Simulator()
        backhaul = EthernetBackhaul(sim)
        got = []
        backhaul.register("dst", lambda s, k, p: got.append(p))
        backhaul.open_fault(
            "corrupt",
            window(MsgCorruption, probability=1.0, kinds={"stop"}),
            rng(),
        )
        backhaul.send("src", "dst", "data", "survives")
        sim.run()
        assert got == ["survives"]
        assert backhaul.stats.corrupt_dropped == 0


class TestBackhaulOneWay:
    def test_directed_drop_reverse_flows(self):
        sim = Simulator()
        backhaul = EthernetBackhaul(sim)
        got = []
        backhaul.register("a", lambda s, k, p: got.append(("a", p)))
        backhaul.register("b", lambda s, k, p: got.append(("b", p)))
        handle = backhaul.open_fault(
            "oneway", window(OneWayPartition, src="a", dst="b")
        )
        backhaul.send("a", "b", "ack", "forward")
        backhaul.send("b", "a", "ack", "reverse")
        sim.run()
        assert got == [("a", "reverse")]
        assert backhaul.stats.oneway_dropped == 1
        assert backhaul.unreachable("a", "b")
        assert not backhaul.unreachable("b", "a")
        backhaul.close_fault(handle)
        backhaul.send("a", "b", "ack", "healed")
        sim.run()
        assert ("b", "healed") in got


class TestBackhaulGrayFailure:
    def test_gray_loss_spares_reliable_kinds(self):
        """The whole point of the gray adversary: heartbeats (the
        reliable class) keep flowing while service traffic rots, so the
        liveness table stays green."""
        sim = Simulator()
        backhaul = EthernetBackhaul(sim)
        got = []
        backhaul.register("dst", lambda s, k, p: got.append(p))
        backhaul.open_fault(
            "gray",
            window(GrayFailure, ap_id="dst", extra_latency_us=0, loss_rate=1.0),
            rng(),
        )
        for kind in sorted(RELIABLE_KINDS):
            backhaul.send("src", "dst", kind, kind)
        backhaul.send("src", "dst", "data", "doomed")
        sim.run()
        assert sorted(got) == sorted(RELIABLE_KINDS)
        assert backhaul.stats.gray_dropped == 1

    def test_gray_extra_latency_delays_delivery(self):
        sim = Simulator()
        backhaul = EthernetBackhaul(sim)
        arrivals = []
        backhaul.register("dst", lambda s, k, p: arrivals.append(sim.now))
        backhaul.send("src", "dst", "data", "before")
        sim.run()
        baseline = arrivals[0]
        handle = backhaul.open_fault(
            "gray",
            window(
                GrayFailure, ap_id="dst", extra_latency_us=5_000, loss_rate=0.0
            ),
            rng(),
        )
        t0 = sim.now
        backhaul.send("src", "dst", "data", "after")
        sim.run()
        assert arrivals[1] - t0 == baseline + 5_000
        backhaul.close_fault(handle)
        t1 = sim.now
        backhaul.send("src", "dst", "data", "healed")
        sim.run()
        assert arrivals[2] - t1 == baseline


class TestInjectorExecution:
    def _run_with_plan(self, plan, seconds=2.0):
        from repro.scenarios.testbed import Testbed, TestbedConfig

        testbed = Testbed(
            TestbedConfig(
                seed=3, scheme="wgtt", client_speeds_mph=[15.0],
                client_start_x_m=6.0, fault_plan=plan,
            )
        )
        sender, _ = testbed.add_downlink_tcp_flow(0)
        sender.start()
        testbed.run_seconds(seconds)
        return testbed

    def test_adversary_windows_open_and_close(self):
        plan = FaultPlan(events=[
            MsgDuplication(at_us=100_000, duration_us=400_000,
                           probability=1.0, copies=1),
            StaleReplay(at_us=200_000, duration_us=300_000, count=16),
            MsgCorruption(at_us=300_000, duration_us=200_000,
                          probability=0.2),
            OneWayPartition(at_us=400_000, duration_us=150_000,
                            src="controller", dst="ap1"),
            GrayFailure(at_us=500_000, duration_us=300_000, ap_id="ap2",
                        extra_latency_us=1_000, loss_rate=0.5),
        ])
        testbed = self._run_with_plan(plan)
        actions = [a for _, a, _ in testbed.fault_injector.events]
        for action in ("dup-on", "dup-off", "replay-capture", "replay-fire",
                       "corrupt-on", "corrupt-off", "oneway-on", "oneway-off",
                       "gray-on", "gray-off"):
            assert action in actions, f"missing injector action {action}"
        # Every window closed: the backhaul dropped its adversary state
        # back to the fault-free fast path.
        assert testbed.backhaul._faults is None
        assert testbed.backhaul.adversary_armed
        assert testbed.fault_injector.gray_windows == 1

    def test_duplication_window_actually_duplicates(self):
        plan = FaultPlan(events=[
            MsgDuplication(at_us=100_000, duration_us=1_500_000,
                           probability=1.0, copies=2),
        ])
        testbed = self._run_with_plan(plan)
        assert testbed.backhaul.stats.duplicated > 10

    def test_replay_fire_logs_replay_count(self):
        plan = FaultPlan(events=[
            StaleReplay(at_us=100_000, duration_us=500_000, count=8),
        ])
        testbed = self._run_with_plan(plan)
        fires = [
            s for _, a, s in testbed.fault_injector.events
            if a == "replay-fire"
        ]
        assert len(fires) == 1
        assert testbed.backhaul.stats.replayed == int(fires[0].split(":")[-1])
        assert testbed.backhaul.stats.replayed > 0


class TestAdversaryPlanDeterminism:
    APS = [f"ap{i}" for i in range(4)]

    def _draw(self, seed):
        return FaultPlan.random(
            RngRegistry(seed).spawn("adversary-plan"),
            self.APS,
            4_000_000,
            {kind: 1.0 for kind in FAULT_CLASSES if kind.adversary},
        )

    def test_same_seed_same_plan(self):
        assert self._draw(11).events == self._draw(11).events

    def test_different_seed_different_plan(self):
        assert self._draw(11).events != self._draw(12).events

    def test_random_never_emits_overlapping_oneways(self):
        """The draw loop skips colliding windows deterministically, so
        a random plan always passes its own validator."""
        for seed in range(5):
            plan = FaultPlan.random(
                RngRegistry(seed).spawn("adversary-plan"),
                self.APS,
                2_000_000,
                {OneWayPartition: 20.0},  # force collisions in the draw
            )
            # Re-validating a reconstructed copy must not raise.
            FaultPlan(events=list(plan.events))

    def test_soak_without_adversary_has_no_adversary_events(self):
        plan = FaultPlan.soak(
            RngRegistry(5).spawn("soak-faults"),
            self.APS,
            10_000_000,
            intensity=1.0,
            adversary_intensity=0.0,
        )
        assert plan.adversary_events() == []

    def test_soak_with_adversary_layers_on_top(self):
        base = FaultPlan.soak(
            RngRegistry(5).spawn("soak-faults"), self.APS, 60_000_000,
            intensity=1.0, adversary_intensity=0.0,
        )
        spiced = FaultPlan.soak(
            RngRegistry(5).spawn("soak-faults"), self.APS, 60_000_000,
            intensity=1.0, adversary_intensity=3.0,
        )
        assert spiced.adversary_events()
        # The chaos families draw from their own named streams, so
        # layering the adversary never perturbs them.
        assert base.of(ApCrash) == spiced.of(ApCrash)
