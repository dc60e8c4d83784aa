"""Controller high availability: checkpoint round-trips, bit-identical
self-restore continuation, warm-standby failover, and the cyclic-queue
overload guardrails."""

import numpy as np
import pytest

from repro.channel.csi import CsiReport
from repro.core.assoc_sync import StaInfo
from repro.core.config import WgttConfig
from repro.core.controller import WgttController
from repro.core.cyclic_queue import CyclicQueue, IndexAllocator
from repro.faults.plan import ApCrash, ControllerCrash, FaultPlan
from repro.mobility.vehicle import VehicleTrack
from repro.experiments.ext_faults import FAILOVER_DEADLINE_US
from repro.experiments.ext_ha import ha_summary
from repro.ha import CHECKPOINT_VERSION, ControllerCheckpoint
from repro.net.backhaul import EthernetBackhaul
from repro.net.packet import Packet
from repro.scenarios.testbed import Testbed, TestbedConfig
from repro.sim import RngRegistry, Simulator
from repro.sim.engine import MS, SECOND


# ----------------------------------------------------------------------
# rig: a controller with rich, randomized state (no radio in the loop)
# ----------------------------------------------------------------------


def make_controller(**config_kw):
    sim = Simulator()
    backhaul = EthernetBackhaul(sim)
    config = WgttConfig(**config_kw)
    controller = WgttController(sim, backhaul, RngRegistry(1), config)
    sent = []
    for ap_id in ("ap0", "ap1", "ap2"):
        backhaul.register(
            ap_id,
            lambda src, kind, payload, ap=ap_id: sent.append(
                (ap, kind, payload)
            ),
        )
        controller.add_ap(ap_id)
    return sim, controller, sent


def feed(controller, sim, ap_id, esnr_db, client_id="client0", count=6):
    base = sim.now
    for i in range(count):
        controller._handle_csi(
            ap_id,
            CsiReport(
                time_us=base + i * 1500,
                ap_id=ap_id,
                client_id=client_id,
                subcarrier_snr_db=np.full(56, esnr_db),
                rssi_dbm=-60.0,
            ),
        )


def enrich(sim, controller, rng: np.random.Generator):
    """Drive the rig into a random-but-reproducible rich state:
    several clients, CSI windows, uplink dedup keys, an in-flight
    switch handshake (the fake APs never ack)."""
    n_clients = int(rng.integers(2, 5))
    for i in range(n_clients):
        controller.register_association(
            StaInfo(
                client=f"client{i}",
                associated_at_us=sim.now,
                first_ap="ap0",
            )
        )
    sim.run(until_us=sim.now + 50_000)
    for i in range(n_clients):
        for ap_id in ("ap0", "ap1", "ap2"):
            feed(
                controller,
                sim,
                ap_id,
                float(rng.uniform(5.0, 30.0)),
                client_id=f"client{i}",
                count=int(rng.integers(2, 7)),
            )
    # Uplink datagrams populate the dedup window.
    for i in range(int(rng.integers(3, 12))):
        controller._handle_uplink(
            "ap0",
            Packet(
                "client0", "server", 200, protocol="udp", ip_id=int(i)
            ),
        )
    # Downlink packets advance index cursors.
    for i in range(int(rng.integers(1, 6))):
        controller.accept_downlink(Packet("server", "client0", 1000))
    # Let a selection tick start a switch (never acked -> stays pending).
    sim.run(until_us=sim.now + 30_000)


# ----------------------------------------------------------------------
# checkpoint round-trip property
# ----------------------------------------------------------------------


class TestCheckpointRoundTrip:
    @pytest.mark.parametrize("seed", [0, 1, 2, 3, 4, 5, 6, 7])
    def test_round_trip_lossless(self, seed):
        """from_bytes(to_bytes(cp)) == cp over randomized rich states."""
        sim, controller, _ = make_controller()
        enrich(sim, controller, np.random.default_rng(seed))
        cp = controller.snapshot()
        clone = ControllerCheckpoint.from_bytes(cp.to_bytes())
        assert clone == cp
        assert clone.digest() == cp.digest()
        assert clone.to_bytes() == cp.to_bytes()

    def test_checkpoint_captures_every_store(self):
        sim, controller, _ = make_controller()
        enrich(sim, controller, np.random.default_rng(42))
        state = controller.snapshot().state
        assert set(state) == {
            "clients",
            "coordinator",
            "liveness",
            "dedup",
            "ap_ids",
            "dead_aps",
            "pending_claims",
            "departed_at",
        }
        assert state["clients"]  # enrich registered clients
        for record in state["clients"].values():
            assert set(record) == {
                "state",
                "sta",
                "selector",
                "index_cursor",
                "last_heard",
                "selection_deadline_us",
            }
        assert state["dedup"]["keys"]  # uplinks populated the window
        assert state["clients"]["client0"]["index_cursor"] > 0

    def test_restore_then_recheckpoint_is_identical(self):
        """Restore is lossless: checkpoint -> restore -> checkpoint
        yields byte-identical state at the same instant."""
        sim, controller, _ = make_controller()
        enrich(sim, controller, np.random.default_rng(7))
        cp1 = controller.snapshot()
        controller.restore(cp1)
        cp2 = controller.snapshot()
        assert cp1.to_bytes() == cp2.to_bytes()

    def test_version_mismatch_refused(self):
        sim, controller, _ = make_controller()
        cp = controller.snapshot()
        bad = ControllerCheckpoint(
            version=CHECKPOINT_VERSION + 1,
            taken_at_us=cp.taken_at_us,
            controller_id=cp.controller_id,
            state=cp.state,
        )
        with pytest.raises(ValueError):
            controller.restore(bad)


# ----------------------------------------------------------------------
# bit-identical self-restore continuation (testbed level)
# ----------------------------------------------------------------------


def _continuation_trace(restore_at_us):
    config = TestbedConfig(seed=11, scheme="wgtt", num_aps=4)
    testbed = Testbed(config)
    source, sink = testbed.add_downlink_udp_flow(0, rate_bps=2e6)
    source.start()
    testbed.run_until(restore_at_us)
    if restore_at_us:
        cp = testbed.controller.snapshot()
        clone = ControllerCheckpoint.from_bytes(cp.to_bytes())
        testbed.controller.restore(clone)
    testbed.run_until(1_600_000)
    return (
        list(testbed.controller.serving_timeline),
        list(sink.arrivals),
        len(testbed.controller.coordinator.history),
    )


class TestBitIdenticalContinuation:
    def test_self_restore_continues_identically(self):
        """A controller restored from its own wire-serialized checkpoint
        produces the same subsequent event trace as one never touched."""
        baseline = _continuation_trace(restore_at_us=0)
        restored = _continuation_trace(restore_at_us=800_000)
        assert restored == baseline


# ----------------------------------------------------------------------
# warm-standby failover (testbed level)
# ----------------------------------------------------------------------


def _ha_testbed(plan=None, checkpoint_interval_ms=100, seed=3):
    config = TestbedConfig(
        seed=seed,
        scheme="wgtt",
        wgtt=WgttConfig(
            ha_enabled=True,
            checkpoint_interval_us=checkpoint_interval_ms * MS,
        ),
        fault_plan=plan,
    )
    return Testbed(config)


class TestWarmStandbyFailover:
    def test_kill_promotes_and_recovers_within_budget(self):
        kill_us = 1 * SECOND
        plan = FaultPlan([ControllerCrash(at_us=kill_us, down_us=None)])
        testbed = _ha_testbed(plan)
        checker = testbed.install_invariant_checker()
        source, sink = testbed.add_downlink_udp_flow(0, rate_bps=2e6)
        source.start()
        testbed.run_until(kill_us + 250 * MS)
        assert testbed.standby.promoted
        assert ha_summary(testbed, checker)["clients_recovered"]
        delivered_at_budget = len(sink.arrivals)
        testbed.run_seconds(1.0)
        assert checker.finish()["ok"]
        summary = ha_summary(testbed, checker)
        assert summary["promotion_latency_ms"] is not None
        assert summary["promotion_latency_ms"] <= 250.0
        assert summary["recovery_latency_ms"] <= 250.0
        # The data plane resumes through the promoted standby.
        assert len(sink.arrivals) > delivered_at_budget
        # Loss across the outage is explicit, never silent.
        assert summary["overflow_drops"] == 0
        assert sink.duplicates == 0
        assert summary["aps_rehomed"] == len(testbed.wgtt_aps)

    def test_no_promotion_without_crash(self):
        testbed = _ha_testbed()
        source, _ = testbed.add_downlink_udp_flow(0, rate_bps=2e6)
        source.start()
        testbed.run_seconds(1.5)
        assert not testbed.standby.promoted
        assert testbed.shards[0].checkpoints_shipped > 0
        assert testbed.active_controller() is testbed.controller

    def test_restarted_primary_stays_demoted(self):
        """A primary that reboots after the standby promoted must not
        steal the array back (split brain)."""
        kill_us = 1 * SECOND
        plan = FaultPlan(
            [ControllerCrash(at_us=kill_us, down_us=800 * MS)]
        )
        testbed = _ha_testbed(plan)
        source, _ = testbed.add_downlink_udp_flow(0, rate_bps=2e6)
        source.start()
        testbed.run_seconds(2.5)
        assert testbed.standby.promoted
        assert testbed.controller.alive  # it did restart ...
        assert testbed.active_controller() is testbed.standby
        for ap in testbed.wgtt_aps.values():
            assert ap._controller_id == testbed.standby.controller_id

    def test_shipped_dedup_window_blocks_post_failover_duplicates(self):
        """A one-client kill drive: the dedup window the checkpoint
        carried over is live on the promoted standby, catches uplink
        copies, and none of them reaches the server twice."""
        plan = FaultPlan([ControllerCrash(at_us=2 * SECOND, down_us=None)])
        testbed = _ha_testbed(plan)
        checker = testbed.install_invariant_checker()
        testbed.add_downlink_udp_flow(0, rate_bps=4e6)[0].start()
        testbed.run_seconds(3.75)
        counts = checker.finish()["counts"]
        assert testbed.standby.promoted
        assert testbed.standby.dedup.duplicates > 0
        assert counts["no-duplicate-delivery"] == 0

    @pytest.mark.parametrize("seed", [3, 5])
    def test_promoted_standby_delivers_no_datagram_twice(self, seed):
        """Two clients with TCP downlinks (their ACKs are the uplink)
        and a primary that dies for good at 2 s.  Regression: the
        standby's dedup window was the last checkpoint's, so copies of
        uplinks the primary delivered after that cut reached the server
        twice (12 at seed 3, 5 at seed 5); the primary now mirrors each
        accepted key to it."""
        testbed = Testbed(
            TestbedConfig(
                seed=seed,
                client_speeds_mph=[25, 15],
                wgtt=WgttConfig(ha_enabled=True),
                fault_plan=FaultPlan(
                    [ControllerCrash(at_us=2 * SECOND, down_us=None)]
                ),
            )
        )
        checker = testbed.install_invariant_checker()
        for index in range(2):
            testbed.add_downlink_tcp_flow(index)[0].start()
        testbed.run_seconds(4.0)
        counts = checker.finish()["counts"]
        assert counts["no-duplicate-delivery"] == 0

    def test_snapshot_follows_the_promoted_standby(self):
        """Regression: the metrics snapshot used to read the primary
        unconditionally, so after a promotion every controller number
        froze at the crash instant while the standby did the work."""
        kill_us = 1 * SECOND
        plan = FaultPlan([ControllerCrash(at_us=kill_us, down_us=None)])
        testbed = _ha_testbed(plan)
        testbed.add_downlink_udp_flow(0, rate_bps=2e6)[0].start()
        testbed.add_uplink_udp_flow(0, rate_bps=1e6)[0].start()
        testbed.run_until(kill_us + 250 * MS)
        assert testbed.standby.promoted
        at_promotion = testbed.obs.metrics.snapshot()
        testbed.run_seconds(2.0)
        later = testbed.obs.metrics.snapshot()
        for key in ("switches_completed", "dedup_accepted"):
            assert later[key] > at_promotion[key], key
        assert later["dedup_accepted"] == testbed.standby.dedup.accepted
        assert later["dedup_accepted"] > testbed.controller.dedup.accepted
        assert later["ha_promotions"] == 1
        # The standby's own counters surface once it is the publisher.
        assert later["controller_stat{name=promotions}"] == 1

    def test_client_admitted_after_last_checkpoint_survives(self):
        """Regression: promotion replaced the warm-fed directory with
        the checkpoint's, so a client that associated after the last
        ship was never tracked and every downlink to it was dropped."""
        testbed = Testbed(
            TestbedConfig(
                seed=5,
                scheme="wgtt",
                num_aps=4,
                wgtt=WgttConfig(ha_enabled=True),
            )
        )
        testbed.run_until(1030 * MS)
        track = VehicleTrack(
            testbed.road,
            start_x=0.0,
            speed_mph=15.0,
            start_time_us=testbed.sim.now,
        )
        testbed.add_client(track, client_id="client1")
        source, sink = testbed.add_downlink_udp_flow(1, rate_bps=1e6)
        source.start()
        testbed.run_until(1060 * MS)
        testbed.controller.crash()  # before the 1.1 s checkpoint ship
        testbed.run_until(2200 * MS)
        standby = testbed.standby
        assert standby.promoted
        assert "client1" not in standby.last_checkpoint.state["clients"]
        assert standby.tracks("client1")
        assert standby.stats["downlink_unassociated"] == 0
        assert len(sink.arrivals) > 50

    def test_client_departed_before_checkpoint_stays_out(self):
        """The warm-fed record of a client the checkpoint saw leave
        (here: deregistered on the primary alone, as a handoff out of
        the region does) is not resurrected at promotion."""
        testbed = _ha_testbed(seed=5)
        testbed.run_until(500 * MS)
        testbed.controller.deregister_client("client0")
        assert testbed.standby.directory.is_associated("client0")
        testbed.run_until(1030 * MS)
        testbed.controller.crash()
        testbed.run_until(1500 * MS)
        assert testbed.standby.promoted
        assert not testbed.standby.tracks("client0")
        assert testbed.standby.stats["stale_sta_syncs"] == 0

    def test_checkpoint_cadence_follows_config(self):
        fast = _ha_testbed(checkpoint_interval_ms=25)
        slow = _ha_testbed(checkpoint_interval_ms=400)
        fast.run_seconds(1.2)
        slow.run_seconds(1.2)
        assert fast.shards[0].checkpoints_shipped > slow.shards[0].checkpoints_shipped


# ----------------------------------------------------------------------
# cyclic-queue overload guardrails
# ----------------------------------------------------------------------


class TestOneTakeoverPath:
    """Whoever takes the controller role over — a cold restart or a
    promoted standby — announces one ctrl-takeover and gets one answer
    from every AP; a restarted half of an HA pair stays out of the way.
    Each run: seed 3, a 2 Mbit/s UDP downlink, a crash at 0.5 s, 1.5 s
    in all."""

    CRASH_US = 500 * MS

    @staticmethod
    def run(plan, ha=False, **config):
        testbed = Testbed(
            TestbedConfig(
                seed=3,
                wgtt=WgttConfig(ha_enabled=ha),
                fault_plan=FaultPlan(plan),
                **config,
            )
        )
        checker = testbed.install_invariant_checker()
        source, sink = testbed.add_downlink_udp_flow(0, rate_bps=2e6)
        source.start()
        testbed.run_until(1500 * MS)
        return testbed, checker.finish(), sink

    @staticmethod
    def arrivals_from(sink, start_us):
        return [t for t, _, _, _ in sink.arrivals if t >= start_us]

    def test_cold_restart_delivers_within_the_failover_deadline(self):
        """Regression: the restarted controller's cursors started at 0,
        a lap behind every AP's write edge (531 ms of nothing here),
        and a replayed sta-sync could register the client on its first
        AP before the serving AP's claim landed, which made the serving
        AP relinquish it."""
        restart_us = self.CRASH_US + 200 * MS
        testbed, report, sink = self.run(
            [ControllerCrash(at_us=self.CRASH_US, down_us=200 * MS)]
        )
        after = self.arrivals_from(sink, restart_us)
        assert after and after[0] - restart_us <= FAILOVER_DEADLINE_US
        for ap in testbed.wgtt_aps.values():
            assert ap.stats["serving_relinquished"] == 0
        assert report["ok"]

    def test_restarted_primary_comes_back_inert(self):
        """Regression: a primary back 20 ms after its crash announced
        itself and took the APs while its standby promoted on the
        silence; nothing was delivered again."""
        testbed, report, sink = self.run(
            [ControllerCrash(at_us=self.CRASH_US, down_us=20 * MS)], ha=True
        )
        assert testbed.standby.promoted
        assert testbed.controller.alive
        assert testbed.active_controller() is testbed.standby
        assert report["ok"]
        assert len(self.arrivals_from(sink, self.CRASH_US + 20 * MS)) >= 100

    def test_restarted_standby_comes_back_inert(self):
        """Regression: a standby back 40 ms after its crash announced
        itself and took the APs from the healthy primary.  The primary
        ships no checkpoint once the standby is down (it shipped 25
        more to the inert standby)."""
        testbed, report, sink = self.run(
            [
                ControllerCrash(
                    at_us=self.CRASH_US,
                    down_us=40 * MS,
                    controller_id="controller-b",
                )
            ],
            ha=True,
        )
        assert not testbed.standby.promoted
        assert {ap._controller_id for ap in testbed.wgtt_aps.values()} == {
            "controller"
        }
        assert report["ok"]
        assert len(self.arrivals_from(sink, self.CRASH_US + 40 * MS)) >= 100
        assert testbed.shards[0].checkpoints_shipped == 4  # 100-400 ms

    def ap_back_before_declared_dead(self, **array):
        testbed, report, sink = self.run(
            [ApCrash(at_us=self.CRASH_US, ap_id="ap0", down_us=20 * MS)],
            client_speeds_mph=[0.0],
            **array,
        )
        assert len(self.arrivals_from(sink, self.CRASH_US)) >= 100
        assert report["ok"]

    def test_ap_back_before_declared_dead_hands_its_clients_over(self):
        """Regression: ap0, serving a parked client, restarts 20 ms after
        its crash, before liveness declares it dead.  The controller
        kept the client on it with nothing serving it, and the checker
        saw nothing wrong: no datagram arrived again."""
        self.ap_back_before_declared_dead(client_start_x_m=9.5)

    def test_lone_ap_back_before_declared_dead_takes_its_client_back(self):
        """The same restart with ap0 the only AP: no other AP has heard
        the client, so ap0 takes it back over a failover to itself."""
        self.ap_back_before_declared_dead(num_aps=1, client_start_x_m=10.0)


class TestOverflowAccounting:
    def test_lapping_the_reader_is_counted(self):
        queue = CyclicQueue(size=8)
        for i in range(8):
            queue.insert(i, Packet("server", "c", 100))
        assert queue.overflow_drops == 0
        # Writer laps onto the (undelivered) head slot.
        queue.insert(0, Packet("server", "c", 100))
        assert queue.overflow_drops == 1
        assert queue.overwrites == 1

    def test_delivered_slots_overwrite_freely(self):
        queue = CyclicQueue(size=8)
        for i in range(4):
            queue.insert(i, Packet("server", "c", 100))
        for _ in range(4):
            queue.pop_head()
        # Next lap re-uses the drained slots: benign, not a drop.
        for i in range(4):
            queue.insert(i + 8, Packet("server", "c", 100))
        assert queue.overflow_drops == 0


class TestIndexAllocatorGuards:
    def test_skid_advances_every_cursor(self):
        alloc = IndexAllocator(size=4096)
        for _ in range(5):
            alloc.allocate("c0")
        alloc.allocate("c1")
        alloc.skid(256)
        assert alloc.peek("c0") == 5 + 256
        assert alloc.peek("c1") == 1 + 256

    def test_skid_wraps_modulo(self):
        alloc = IndexAllocator(size=16)
        for _ in range(10):
            alloc.allocate("c0")
        alloc.skid(10)
        assert alloc.peek("c0") == (10 + 10) % 16

    def test_fast_forward_only_moves_forward(self):
        alloc = IndexAllocator(size=4096)
        for _ in range(100):
            alloc.allocate("c0")
        assert alloc.fast_forward("c0", 150)  # ahead: moves
        assert alloc.peek("c0") == 150
        assert not alloc.fast_forward("c0", 150)  # equal: ignored
        assert not alloc.fast_forward("c0", 120)  # behind: ignored
        assert alloc.peek("c0") == 150
        # A wrapped ancient edge (>= half ring ahead) is ignored too.
        assert not alloc.fast_forward("c0", 150 + 2048)
        assert alloc.peek("c0") == 150

    def test_fast_forward_without_a_cursor_takes_any_edge(self):
        """A cold restart lost every cursor: the APs' edges are where
        the client's index stream stands, even past half the ring."""
        alloc = IndexAllocator(size=4096)
        assert not alloc.fast_forward("c0", 0)
        assert alloc.tracked_clients() == 0
        assert alloc.fast_forward("c0", 3000)
        assert alloc.peek("c0") == 3000

    def test_forget_client_frees_cursor(self):
        alloc = IndexAllocator()
        alloc.allocate("c0")
        alloc.allocate("c1")
        alloc.forget_client("c0")
        assert alloc.tracked_clients() == 1
        assert alloc.peek("c0") == 0  # fresh if it ever returns
