"""Fault-injection tests: the switching protocol under a lossy
backhaul, the chaos rig (crash / partition / jitter / CSI blackout),
liveness-driven emergency failover, and determinism of it all."""

import pytest

from repro.core.liveness import HEARTBEAT_MISS_LIMIT
from repro.core.switching import OUTCOME_FAILED_OVER, SWITCH_TIMEOUT_US
from repro.faults import ApCrash, CsiBlackout, FaultPlan, LinkJitter, Partition
from repro.experiments.ext_faults import FAILOVER_DEADLINE_US, failover_summary
from repro.net.backhaul import CONTROL_LATENCY_US
from repro.scenarios.testbed import Testbed, TestbedConfig
from repro.sim.engine import SECOND
from repro.sim.rng import RngRegistry


def lossy_testbed(loss_rate: float, seed: int = 3):
    testbed = Testbed(
        TestbedConfig(seed=seed, scheme="wgtt", client_speeds_mph=[15.0],
                      client_start_x_m=6.0)
    )
    # Inject loss after construction so registration is unaffected.
    testbed.backhaul.loss_rate = loss_rate
    testbed.backhaul._loss_rng = testbed.rng.stream("backhaul-loss")
    return testbed


class TestLossyBackhaul:
    def test_backhaul_loss_parameter_validated(self):
        from repro.net.backhaul import EthernetBackhaul
        from repro.sim import Simulator

        with pytest.raises(ValueError):
            EthernetBackhaul(Simulator(), loss_rate=1.5)
        with pytest.raises(ValueError):
            EthernetBackhaul(Simulator(), loss_rate=-0.1)

    def test_total_blackhole_is_a_legal_fault(self):
        """loss_rate == 1.0 models a black-holed wire and must be
        accepted (only values outside [0, 1] are invalid)."""
        from repro.net.backhaul import EthernetBackhaul
        from repro.sim import Simulator

        sim = Simulator()
        backhaul = EthernetBackhaul(sim, loss_rate=1.0)
        got = []
        backhaul.register("dst", lambda *a: got.append(a))
        backhaul.send("src", "dst", "data", "x")
        sim.run()
        assert got == []
        assert backhaul.dropped == 1

    def test_missing_loss_rng_defaults_instead_of_disabling(self):
        """The old bug: loss_rate > 0 with no rng silently disabled
        loss.  Now a default seeded stream is built on first use."""
        from repro.net.backhaul import EthernetBackhaul
        from repro.sim import Simulator

        sim = Simulator()
        backhaul = EthernetBackhaul(sim, loss_rate=0.5)  # no loss_rng
        backhaul.register("dst", lambda *a: None)
        for _ in range(200):
            backhaul.send("src", "dst", "data", "x")
        sim.run()
        assert 30 < backhaul.dropped < 170  # loss actually engaged

    def test_default_loss_stream_is_reproducible(self):
        from repro.net.backhaul import EthernetBackhaul
        from repro.sim import Simulator

        def run_once():
            sim = Simulator()
            backhaul = EthernetBackhaul(sim, loss_rate=0.3)
            delivered = []
            backhaul.register("dst", lambda s, k, p: delivered.append(p))
            for i in range(100):
                backhaul.send("src", "dst", "data", i)
            sim.run()
            return delivered

        assert run_once() == run_once()

    def test_messages_actually_dropped(self):
        testbed = lossy_testbed(0.5)
        source, _ = testbed.add_downlink_udp_flow(0, rate_bps=10e6)
        source.start()
        testbed.run_seconds(2.0)
        assert testbed.backhaul.dropped > 100

    def test_switching_survives_control_loss(self):
        """Lost stop/start/ack messages trigger the 30 ms retransmission
        and the system keeps making forward progress (paper §3.1.2)."""
        testbed = lossy_testbed(0.10)
        sender, _ = testbed.add_downlink_tcp_flow(0)
        sender.start()
        testbed.run_seconds(8.0)
        history = testbed.controller.coordinator.history
        completed = [r for r in history if r.completed_us is not None]
        assert len(completed) >= 3
        # some switches needed the retransmission path
        retried = [r for r in completed if r.retries > 0]
        assert retried, "10% loss should have forced at least one retry"
        # retried switches took at least one extra timeout round
        assert all(r.duration_us >= SWITCH_TIMEOUT_US for r in retried)
        # and data still flowed (10% of tunneled datagrams are lost on
        # the wire too, so throughput is necessarily modest)
        assert sender.snd_una > 150

    def test_clean_backhaul_never_retries(self):
        testbed = lossy_testbed(0.0)
        sender, _ = testbed.add_downlink_tcp_flow(0)
        sender.start()
        testbed.run_seconds(6.0)
        history = testbed.controller.coordinator.history
        assert history
        assert all(r.retries == 0 for r in history)


class TestUplinkTcp:
    def test_uplink_tcp_flow_over_wgtt(self):
        testbed = Testbed(
            TestbedConfig(seed=3, scheme="wgtt", client_speeds_mph=[0.0],
                          client_start_x_m=9.5)
        )
        sender, receiver = testbed.add_uplink_tcp_flow(0)
        sender.start()
        testbed.run_seconds(3.0)
        # client -> APs -> controller (de-dup) -> server, ACKs back down
        assert sender.snd_una > 200
        assert receiver.rcv_nxt >= sender.snd_una

    def test_uplink_tcp_flow_over_baseline(self):
        testbed = Testbed(
            TestbedConfig(seed=3, scheme="baseline", client_speeds_mph=[0.0],
                          client_start_x_m=9.5)
        )
        sender, receiver = testbed.add_uplink_tcp_flow(0)
        sender.start()
        testbed.run_seconds(3.0)
        assert sender.snd_una > 200


def chaos_testbed(plan=None, seed=3, **overrides):
    config = TestbedConfig(
        seed=seed, scheme="wgtt", fault_plan=plan, **overrides
    )
    return Testbed(config)


class TestFaultPlan:
    def test_events_sorted_by_time(self):
        plan = FaultPlan(
            [
                ApCrash(at_us=300, ap_id="ap1"),
                CsiBlackout(at_us=100, duration_us=50, ap_id="ap0"),
                Partition(
                    at_us=200, duration_us=50,
                    side_a={"ap0"}, side_b={"controller"},
                ),
            ]
        )
        assert [e.at_us for e in plan] == [100, 200, 300]

    def test_validation(self):
        with pytest.raises(ValueError):
            ApCrash(at_us=-1, ap_id="ap0")
        with pytest.raises(ValueError):
            ApCrash(at_us=0, ap_id="ap0", down_us=0)
        with pytest.raises(ValueError):
            Partition(at_us=0, duration_us=10,
                      side_a={"a"}, side_b={"a", "b"})
        with pytest.raises(ValueError):
            LinkJitter(at_us=0, duration_us=10, src="a", dst="b", jitter_us=0)
        with pytest.raises(ValueError):
            CsiBlackout(at_us=0, duration_us=0, ap_id="ap0")

    def test_random_plan_reproducible(self):
        def draw():
            rng = RngRegistry(42).spawn("faultplan")
            return FaultPlan.random(
                rng, ["ap0", "ap1", "ap2"], 10 * SECOND,
                {ApCrash: 0.5, Partition: 0.3, LinkJitter: 0.3,
                 CsiBlackout: 0.3},
            )

        assert draw().describe() == draw().describe()

    def test_random_plan_rate_zero_is_empty(self):
        rng = RngRegistry(1)
        plan = FaultPlan.random(rng, ["ap0"], SECOND, {ApCrash: 0.0})
        assert len(plan) == 0


class TestApCrash:
    def test_crash_silences_ap(self):
        testbed = chaos_testbed()
        ap = testbed.wgtt_aps["ap0"]
        testbed.run_seconds(0.5)
        heartbeats_before = ap.stats["heartbeats_sent"]
        assert heartbeats_before > 0
        testbed.wgtt_aps["ap0"].crash()
        assert not ap.alive
        assert not ap.device.powered
        assert testbed.backhaul.unreachable("controller", "ap0")
        testbed.run_seconds(0.5)
        assert ap.stats["heartbeats_sent"] == heartbeats_before

    def test_restart_resyncs_associations(self):
        testbed = chaos_testbed()
        testbed.run_seconds(0.2)
        testbed.wgtt_aps["ap0"].crash()
        assert not testbed.wgtt_aps["ap0"].directory.clients()
        testbed.run_seconds(0.2)
        testbed.wgtt_aps["ap0"].restart()
        testbed.run_seconds(0.2)
        ap = testbed.wgtt_aps["ap0"]
        assert ap.alive and ap.device.powered
        # sta-sync replay restored the association directory
        assert "client0" in ap.directory.clients()
        assert testbed.controller.stats["ap_resyncs"] >= 1

    def test_liveness_declares_crashed_ap_dead(self):
        testbed = chaos_testbed()
        testbed.run_seconds(0.5)
        testbed.wgtt_aps["ap5"].crash()  # not the serving AP at t=0.5s
        testbed.run_seconds(0.5)
        controller = testbed.controller
        assert "ap5" in controller.dead_aps()
        assert controller.stats["aps_declared_dead"] == 1
        # detection within the documented bound (plus the one-way
        # backhaul control latency the last heartbeat rode on)
        interval = testbed.config.wgtt.heartbeat_interval_us
        bound = (
            (HEARTBEAT_MISS_LIMIT + 1) * interval
            + CONTROL_LATENCY_US
        )
        down_events = [e for e in controller.liveness.events if e[1] == "down"]
        assert down_events[0][0] - int(0.5 * SECOND) <= bound
        # recovery on restart
        testbed.wgtt_aps["ap5"].restart()
        testbed.run_seconds(0.2)
        assert "ap5" not in testbed.controller.dead_aps()
        assert controller.stats["aps_recovered"] == 1


class TestEmergencyFailover:
    def test_mid_drive_crash_fails_over_within_deadline(self):
        """The acceptance scenario: kill the serving AP mid-drive; the
        client must be re-served by a live AP within the deadline and
        TCP must keep making forward progress."""
        testbed = chaos_testbed()
        checker = testbed.install_invariant_checker()
        sender, receiver = testbed.add_downlink_tcp_flow(0)
        sender.start()
        testbed.run_seconds(2.0)
        victim = testbed.serving_ap_of(0)
        crash_us = testbed.sim.now
        testbed.install_fault_plan(
            FaultPlan([ApCrash(at_us=crash_us, ap_id=victim,
                               down_us=2 * SECOND)])
        )
        segments_at_crash = receiver.rcv_nxt
        testbed.run_seconds(3.0)

        assert checker.finish()["ok"]
        summary = failover_summary(checker)
        assert summary["crashes"] == 1
        assert summary["recovered"] == 1
        assert summary["unrecovered"] == 0
        assert summary["deadline_violations"] == 0
        assert summary["max_failover_ms"] is not None
        assert summary["max_failover_ms"] <= FAILOVER_DEADLINE_US / 1_000.0
        # the new serving AP is live and different
        new_ap = testbed.serving_ap_of(0)
        assert new_ap != victim
        assert new_ap not in testbed.controller.dead_aps()
        # the failover handshake is recorded as such
        assert any(
            r.outcome == OUTCOME_FAILED_OVER
            for r in testbed.controller.coordinator.history
        )
        # TCP kept flowing after the crash
        assert receiver.rcv_nxt > segments_at_crash

    def test_failover_restarts_from_fanned_out_backlog(self):
        """The adopting AP resumes from its own cyclic-queue backlog —
        the paper's fan-out makes failover nearly free."""
        testbed = chaos_testbed()
        sender, _ = testbed.add_downlink_tcp_flow(0)
        sender.start()
        testbed.run_seconds(2.0)
        victim = testbed.serving_ap_of(0)
        testbed.install_fault_plan(
            FaultPlan([ApCrash(at_us=testbed.sim.now, ap_id=victim)])
        )
        testbed.run_seconds(1.0)
        new_ap = testbed.serving_ap_of(0)
        assert new_ap != victim
        assert testbed.wgtt_aps[new_ap].stats["failovers_handled"] >= 1


class TestPartition:
    def test_partition_blocks_and_heal_restores(self):
        from repro.net.backhaul import EthernetBackhaul
        from repro.sim import Simulator

        sim = Simulator()
        backhaul = EthernetBackhaul(sim)
        got = []
        backhaul.register("a", lambda *m: got.append(("a", m)))
        backhaul.register("b", lambda *m: got.append(("b", m)))
        pid = backhaul.open_fault(
            "partitions",
            Partition(at_us=0, duration_us=1, side_a={"a"}, side_b={"b"}),
        )
        backhaul.send("a", "b", "data", 1)
        backhaul.send("b", "a", "data", 2)
        sim.run()
        assert got == []
        assert backhaul.stats.fault_dropped == 2
        backhaul.close_fault(pid)
        backhaul.send("a", "b", "data", 3)
        sim.run()
        assert len(got) == 1

    def test_partitioned_aps_declared_dead_then_recover(self):
        testbed = chaos_testbed()
        testbed.run_seconds(0.3)
        start = testbed.sim.now
        testbed.install_fault_plan(
            FaultPlan([
                Partition(
                    at_us=start,
                    duration_us=int(0.5 * SECOND),
                    side_a={"ap6", "ap7"},
                    side_b={"controller"} | {f"ap{i}" for i in range(6)},
                )
            ])
        )
        testbed.run_seconds(0.4)
        assert {"ap6", "ap7"} <= testbed.controller.dead_aps()
        testbed.run_seconds(0.6)  # heal + heartbeats resume
        assert not ({"ap6", "ap7"} & testbed.controller.dead_aps())


class TestCsiBlackout:
    def test_blackout_suppresses_reports_then_recovers(self):
        testbed = chaos_testbed(client_speeds_mph=[0.0],
                                client_start_x_m=11.0)
        source, _ = testbed.add_uplink_udp_flow(0, rate_bps=3e6)
        source.start()
        testbed.run_seconds(0.5)
        ap0 = testbed.wgtt_aps["ap0"]
        before = ap0.stats["csi_reports"]
        assert before > 0
        testbed.install_fault_plan(
            FaultPlan([
                CsiBlackout(at_us=testbed.sim.now,
                            duration_us=int(0.5 * SECOND), ap_id="ap0")
            ])
        )
        testbed.run_seconds(0.5)
        during = ap0.stats["csi_reports"]
        assert during == before  # nothing reported while suppressed
        assert ap0.stats["csi_suppressed"] > 0
        testbed.run_seconds(0.5)
        assert ap0.stats["csi_reports"] > during  # reports resumed


class TestLinkJitter:
    def test_jitter_delays_and_reorders(self):
        from repro.net.backhaul import EthernetBackhaul
        from repro.sim import Simulator

        sim = Simulator()
        backhaul = EthernetBackhaul(sim)
        got = []
        backhaul.register("dst", lambda s, k, p: got.append(p))
        rng = RngRegistry(7).stream("test-jitter")
        handle = backhaul.open_fault(
            "jitter",
            LinkJitter(
                at_us=0, duration_us=1, src="src", dst="dst", jitter_us=5_000
            ),
            rng,
        )
        for i in range(50):
            backhaul.send_control("src", "dst", "data", i)
        sim.run()
        assert sorted(got) == list(range(50))
        assert got != list(range(50))  # at least one reorder
        backhaul.close_fault(handle)
        got.clear()
        for i in range(10):
            backhaul.send_control("src", "dst", "data", i)
        sim.run()
        assert got == list(range(10))  # order restored


class TestDeterministicChaos:
    def _run_chaos(self, seed):
        rng = RngRegistry(seed).spawn("faultplan")
        plan = FaultPlan.random(
            rng, [f"ap{i}" for i in range(8)], 4 * SECOND,
            {ApCrash: 0.5, Partition: 0.3},
            overrides={ApCrash: {"down_us": SECOND}},
        )
        testbed = chaos_testbed(plan=plan, seed=seed)
        sender, _ = testbed.add_downlink_tcp_flow(0)
        sender.start()
        testbed.run_seconds(4.0)
        return {
            "fault_trace": testbed.fault_injector.trace_lines(),
            "liveness": list(testbed.controller.liveness.events),
            "timeline": list(testbed.controller.serving_timeline),
            "history": [
                (r.client, r.from_ap, r.to_ap, r.started_us,
                 r.completed_us, r.retries, r.outcome, r.failover)
                for r in testbed.controller.coordinator.history
            ],
            "snd_una": sender.snd_una,
        }

    def test_same_seed_same_plan_byte_identical(self):
        """The determinism contract: identical (seed, plan) pairs give
        byte-identical fault traces AND byte-identical protocol
        behaviour (liveness events, failovers, switch history)."""
        a = self._run_chaos(11)
        b = self._run_chaos(11)
        assert a == b

    def test_different_seed_different_trace(self):
        a = self._run_chaos(11)
        b = self._run_chaos(12)
        assert a["fault_trace"] != b["fault_trace"]


class TestFaultFreeEquivalence:
    def test_fault_free_run_is_clean(self):
        """No faults -> no retries, no failovers, no aborts, no dead
        APs: the robustness machinery is invisible on a healthy array."""
        testbed = chaos_testbed()
        sender, _ = testbed.add_downlink_tcp_flow(0)
        sender.start()
        testbed.run_seconds(5.0)
        controller = testbed.controller
        history = controller.coordinator.history
        assert history
        assert all(r.retries == 0 for r in history)
        assert all(r.outcome == "completed" for r in history)
        assert all(not r.failover for r in history)
        assert controller.coordinator.aborted == 0
        assert controller.dead_aps() == set()
        assert controller.stats["failovers_initiated"] == 0
        assert controller.liveness.events == []
        assert testbed.backhaul.stats.fault_dropped == 0

    def test_empty_fault_plan_identical_to_no_plan(self):
        def fingerprint(plan):
            testbed = chaos_testbed(plan=plan)
            sender, _ = testbed.add_downlink_tcp_flow(0)
            sender.start()
            testbed.run_seconds(3.0)
            return (
                sender.snd_una,
                list(testbed.controller.serving_timeline),
            )

        assert fingerprint(None) == fingerprint(FaultPlan())


class TestMultiChannel:
    def test_cross_channel_deafness(self):
        """APs on another channel hear nothing from the client."""
        testbed = Testbed(
            TestbedConfig(seed=3, scheme="wgtt", client_speeds_mph=[0.0],
                          client_start_x_m=11.0, channel_plan=[1, 6, 11])
        )
        # client associated to ap0 (channel 1); retuned at association
        assert testbed.clients[0].device.channel == 1
        source, _ = testbed.add_uplink_udp_flow(0, rate_bps=3e6)
        source.start()
        testbed.run_seconds(2.0)
        # ap1 (channel 6) is nearby but tuned away: zero CSI from it
        assert testbed.wgtt_aps["ap1"].stats["csi_reports"] == 0
        assert testbed.wgtt_aps["ap0"].stats["csi_reports"] > 50

    def test_single_channel_default(self):
        testbed = Testbed(TestbedConfig(seed=3, scheme="wgtt"))
        channels = {ap.device.channel for ap in testbed.wgtt_aps.values()}
        assert channels == {11}
