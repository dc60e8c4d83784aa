"""Runtime protocol-invariant checker tests, plus regression tests for
the handler bugs the adversary gate flushed out (stale stop/takeover/
hello, replayed sta-sync resurrection, split-brain serving duty)."""

import pytest

from repro.core.assoc_sync import StaInfo
from repro.core.switching import (
    SWITCH_RETRY_LIMIT,
    StopMsg,
    SwitchRecord,
    _Pending,
)
from repro.invariants import InvariantChecker, InvariantViolation
from repro.scenarios.presets import shard_corridor_config
from repro.scenarios.testbed import Testbed, TestbedConfig
from repro.sim.engine import SECOND


def static_testbed(seed=3, **kwargs):
    """One parked client — no organic switches to muddy assertions."""
    return Testbed(
        TestbedConfig(
            seed=seed, scheme="wgtt", client_speeds_mph=[0.0],
            client_start_x_m=6.0, **kwargs,
        )
    )


def serving_ap(testbed, client_id="client0"):
    ap_id = testbed.controller.serving_ap(client_id)
    return testbed.wgtt_aps[ap_id]


class TestCheckerLifecycle:
    def test_install_requires_wgtt_scheme(self):
        testbed = Testbed(
            TestbedConfig(seed=3, scheme="baseline",
                          client_speeds_mph=[0.0], client_start_x_m=6.0)
        )
        with pytest.raises(ValueError):
            testbed.install_invariant_checker()

    def test_double_install_rejected(self):
        testbed = static_testbed()
        testbed.install_invariant_checker()
        with pytest.raises(RuntimeError):
            testbed.install_invariant_checker()

    def test_start_twice_rejected(self):
        testbed = static_testbed()
        checker = InvariantChecker(testbed)
        checker.start()
        with pytest.raises(RuntimeError):
            checker.start()

    def test_interval_validated(self):
        testbed = static_testbed()
        with pytest.raises(ValueError):
            InvariantChecker(testbed, interval_us=0)

    def test_finish_is_idempotent(self):
        testbed = static_testbed()
        checker = testbed.install_invariant_checker()
        testbed.run_seconds(0.2)
        first = checker.finish()
        second = checker.finish()
        assert first == second


class TestHealthyRun:
    def test_clean_run_has_zero_violations(self):
        testbed = Testbed(
            TestbedConfig(seed=3, scheme="wgtt", client_speeds_mph=[15.0],
                          client_start_x_m=6.0)
        )
        checker = testbed.install_invariant_checker()
        sender, _ = testbed.add_downlink_tcp_flow(0)
        sender.start()
        testbed.run_seconds(4.0)
        report = checker.finish()
        assert report["ok"]
        assert report["violations"] == []
        assert report["checks"] > 50
        assert all(count == 0 for count in report["counts"].values())
        # Real switches happened under the checker's watch.
        assert testbed.controller.coordinator.history

    def test_metrics_shape_complete_and_sorted(self):
        """Every invariant exports a labelled counter even at zero —
        snapshot shape must not change the moment something breaks."""
        testbed = static_testbed()
        checker = testbed.install_invariant_checker()
        testbed.run_seconds(0.3)
        metrics = checker.collect_metrics()
        assert metrics["invariant_checks"] == checker.checks > 0
        assert metrics["invariant_violations_total"] == 0
        labelled = [k for k in metrics if k.startswith("invariant_violations{")]
        assert len(labelled) == len(InvariantChecker.INVARIANTS)
        assert labelled == sorted(labelled)
        # And the registry integration surfaces them in snapshots.
        snapshot = testbed.obs.metrics.snapshot()
        assert snapshot["invariant_violations_total"] == 0


class TestTraceFedInvariants:
    """Feed the checker synthetic trace events and watch it object."""

    def setup_checker(self):
        testbed = static_testbed()
        checker = testbed.install_invariant_checker()
        return testbed, checker, testbed.sim.obs.trace

    def emit_serving(self, tracer, client, gen):
        tracer.emit("controller", "serving-update", track="test",
                    client=client, ap="ap0", gen=gen)

    def test_monotonic_serving_gen(self):
        testbed, checker, tracer = self.setup_checker()
        self.emit_serving(tracer, "ghost", (100, 1))
        self.emit_serving(tracer, "ghost", (100, 2))
        assert checker.counts["monotonic-serving-gen"] == 0
        self.emit_serving(tracer, "ghost", (100, 2))  # duplicate
        assert checker.counts["monotonic-serving-gen"] == 1
        self.emit_serving(tracer, "ghost", (99, 7))  # epoch regression
        assert checker.counts["monotonic-serving-gen"] == 2
        # A newer epoch clears the bar again.
        self.emit_serving(tracer, "ghost", (101, 0))
        assert checker.counts["monotonic-serving-gen"] == 2

    def test_untagged_generation_is_skipped(self):
        """Non-WGTT publishers carry no generation tuple; the checker
        must not manufacture violations from them."""
        testbed, checker, tracer = self.setup_checker()
        self.emit_serving(tracer, "ghost", None)
        self.emit_serving(tracer, "ghost", None)
        assert checker.counts["monotonic-serving-gen"] == 0

    def test_duplicate_delivery_flagged(self):
        testbed, checker, tracer = self.setup_checker()
        tracer.emit("testbed", "uplink-deliver", track="server",
                    key=0xABC, src="client9", ip_id=1, protocol="udp")
        assert checker.counts["no-duplicate-delivery"] == 0
        tracer.emit("testbed", "uplink-deliver", track="server",
                    key=0xABC, src="client9", ip_id=1, protocol="udp")
        assert checker.counts["no-duplicate-delivery"] == 1

    def test_arp_repeats_are_legitimate(self):
        testbed, checker, tracer = self.setup_checker()
        for _ in range(3):
            tracer.emit("testbed", "uplink-deliver", track="server",
                        key=0xDEF, src="client9", ip_id=0, protocol="arp")
        assert checker.counts["no-duplicate-delivery"] == 0

    def test_retry_storm_bound(self):
        _, checker, tracer = self.setup_checker()
        tracer.emit("controller", "switch-retry", track="test",
                    client="ghost", switch_id=7, retries=SWITCH_RETRY_LIMIT)
        assert checker.counts["bounded-retry-storm"] == 0
        tracer.emit("controller", "switch-retry", track="test",
                    client="ghost", switch_id=7,
                    retries=SWITCH_RETRY_LIMIT + 1)
        assert checker.counts["bounded-retry-storm"] == 1

    def test_drain_new_returns_each_breach_once(self):
        testbed, checker, tracer = self.setup_checker()
        self.emit_serving(tracer, "ghost", (1, 1))
        self.emit_serving(tracer, "ghost", (1, 1))
        fresh = checker.drain_new()
        assert len(fresh) == 1
        assert isinstance(fresh[0], InvariantViolation)
        assert fresh[0].invariant == "monotonic-serving-gen"
        assert checker.drain_new() == []


def two_shard_testbed(**kwargs):
    """The same parked client, in region 1 of a 2-shard / 8-AP corridor."""
    return Testbed(
        shard_corridor_config(
            num_shards=2, num_aps=8, seed=3, client_speeds_mph=[0.0],
            client_start_x_m=52.0, **kwargs,
        )
    )


def region_of(testbed):
    """The last region: the only one, or region 1 of two, where the
    client sits — so a forged breach lands where the single-region
    ``tb.controller`` / ``tb.standby`` shortcuts cannot reach."""
    return testbed.shards[-1]


def holder_and_other(testbed):
    """The client's serving AP and ap0: the same region's under the
    classic topology, the *other* region's under two shards."""
    region = region_of(testbed)
    holder = region.aps[region.controller.serving_ap("client0")]
    other = testbed.wgtt_aps["ap0"]
    assert other is not holder
    return holder, other


class TestProbeInvariants:
    """Every probe is made to fire — here on the classic topology, and
    once more on two shards by the subclass below."""

    build = staticmethod(static_testbed)

    def test_single_active_controller(self):
        from repro.core.config import WgttConfig

        testbed = self.build(wgtt=WgttConfig(ha_enabled=True))
        standby = region_of(testbed).standby
        checker = testbed.install_invariant_checker()
        testbed.run_seconds(0.2)
        assert checker.counts["single-active-controller"] == 0
        # Force dual-active: the standby claims the active role while
        # the primary is still alive.
        standby.role = "active"
        testbed.run_seconds(0.3)
        # Flagged once per episode, not once per probe.
        assert checker.counts["single-active-controller"] == 1
        # The subject names the pair.
        assert checker.violations[0].subject == ",".join(
            c.controller_id for c in region_of(testbed).controllers()
        )
        standby.role = "standby"
        testbed.run_seconds(0.1)
        standby.role = "active"
        testbed.run_seconds(0.2)
        assert checker.counts["single-active-controller"] == 2

    def test_single_serving_ap_overlap_flagged_after_slack(self):
        testbed = self.build()
        checker = testbed.install_invariant_checker()
        testbed.run_seconds(0.2)
        _, other = holder_and_other(testbed)
        other._serving.add("client0")
        # Within the reconvergence slack: observed but not yet flagged.
        testbed.run_seconds(0.1)
        assert checker.counts["single-serving-ap"] == 0
        assert "client0" in checker._overlap_since
        testbed.run_seconds(0.4)
        assert checker.counts["single-serving-ap"] == 1
        # Overlap resolves -> episode clears; a fresh overlap later
        # would count again.
        other._serving.discard("client0")
        testbed.run_seconds(0.1)
        assert "client0" not in checker._overlap_since

    def test_overlap_excused_while_handshake_in_flight(self):
        testbed = self.build()
        checker = testbed.install_invariant_checker()
        testbed.run_seconds(0.2)
        holder, other = holder_and_other(testbed)
        other._serving.add("client0")
        # Park a pending handshake slot for the client: duty is
        # legitimately in motion, the checker must stay quiet.
        record = SwitchRecord(
            client="client0", from_ap=holder.ap_id, to_ap=other.ap_id,
            started_us=testbed.sim.now,
        )
        coordinator = region_of(testbed).controller.coordinator
        coordinator._pending.add(
            "client0", _Pending(record=record, switch_id=9_999)
        )
        testbed.run_seconds(0.5)
        assert checker.counts["single-serving-ap"] == 0
        coordinator._pending.pop("client0")
        other._serving.discard("client0")

    def test_switch_span_terminates(self):
        testbed = self.build()
        checker = testbed.install_invariant_checker()
        coordinator = region_of(testbed).controller.coordinator
        record = SwitchRecord(
            client="ghost", from_ap="ap6", to_ap="ap7", started_us=0
        )
        coordinator._pending.add("ghost", _Pending(record=record, switch_id=77))
        bound_s = checker._switch_age_bound_us() / SECOND
        testbed.run_seconds(bound_s / 2)
        assert checker.counts["switch-span-terminates"] == 0
        testbed.run_seconds(bound_s)
        assert checker.counts["switch-span-terminates"] == 1
        # Stuck-handshake episodes are one violation, not one per probe.
        testbed.run_seconds(0.2)
        assert checker.counts["switch-span-terminates"] == 1
        coordinator._pending.pop("ghost")

    def test_liveness_agreement(self):
        testbed = self.build()
        checker = testbed.install_invariant_checker()
        testbed.run_seconds(0.2)
        active = region_of(testbed).active_controller()
        # The controller swears ap7 is dead; ap7 is demonstrably alive
        # and reachable — a stuck failure detector.
        active.dead_aps = lambda: {"ap7"}
        slack_s = checker._liveness_slack_us() / SECOND
        testbed.run_seconds(slack_s * 2 + 0.1)
        assert checker.counts["liveness-agreement"] == 1
        assert checker.violations[0].subject == "ap7"

    def test_max_violations_caps_list_not_counters(self):
        testbed = self.build()
        checker = InvariantChecker(testbed, max_violations=2)
        checker.start()
        tracer = testbed.sim.obs.trace
        for i in range(5):
            tracer.emit("controller", "serving-update", track="test",
                        client="ghost", ap="ap0", gen=(1, 1))
        assert len(checker.violations) == 2
        assert checker.counts["monotonic-serving-gen"] == 4
        assert checker.total_violations() == 4


class TestProbeInvariantsTwoShards(TestProbeInvariants):
    """The same forgeries in region 1 of a 2-shard corridor, and what
    only a corridor can get wrong."""

    build = staticmethod(two_shard_testbed)

    def test_overlap_excused_while_shard_handoff_in_flight(self):
        testbed = self.build()
        checker = testbed.install_invariant_checker()
        testbed.run_seconds(0.2)
        testbed.wgtt_aps["ap0"]._serving.add("client0")
        # Only membership is read: duty is moving between regions.
        testbed.shard_manager._pending.add("client0", None)
        testbed.run_seconds(0.5)
        assert checker.counts["single-serving-ap"] == 0
        testbed.shard_manager._pending.pop("client0")
        testbed.run_seconds(0.5)
        assert checker.counts["single-serving-ap"] == 1

    def _two_shards_probed_by_hand(self):
        """No sim time passes after the forgery, so neither the
        manager's scan loop nor the controllers get to react to it."""
        testbed = self.build()
        checker = testbed.install_invariant_checker()
        testbed.run_seconds(0.2)
        assert checker.counts["single-owner-shard"] == 0
        return testbed, checker

    def test_single_owner_shard_client_tracked_by_two_regions(self):
        testbed, checker = self._two_shards_probed_by_hand()
        here, there = (shard.controller for shard in testbed.shards)
        here._clients["client0"] = there._clients["client0"]
        checker._probe()
        checker._probe()
        # Flagged once per episode, not once per probe.
        assert checker.counts["single-owner-shard"] == 1
        assert "2 shard controllers" in checker.violations[0].message
        del here._clients["client0"]
        checker._probe()
        here._clients["client0"] = there._clients["client0"]
        checker._probe()
        assert checker.counts["single-owner-shard"] == 2

    def test_single_owner_shard_tracked_off_the_owner_map(self):
        testbed, checker = self._two_shards_probed_by_hand()
        assert testbed.shard_manager.owner_of("client0") == 1
        testbed.shard_manager._owner["client0"] = 0
        checker._probe()
        assert checker.counts["single-owner-shard"] == 1
        assert "names shard 0" in checker.violations[0].message


class TestSloGuardIntegration:
    def test_invariant_breach_becomes_slo_violation(self):
        from repro.soak.slo import SloGuard

        testbed = static_testbed()
        checker = testbed.install_invariant_checker()
        guard = SloGuard(
            testbed, None, interval_us=SECOND // 10, invariants=checker
        )
        guard.start()
        testbed.run_seconds(0.05)
        tracer = testbed.sim.obs.trace
        tracer.emit("controller", "serving-update", track="test",
                    client="ghost", ap="ap0", gen=(1, 1))
        tracer.emit("controller", "serving-update", track="test",
                    client="ghost", ap="ap0", gen=(1, 1))
        testbed.run_seconds(0.3)
        report = guard.finish()
        assert not report["ok"]
        kinds = [v["invariant"] for v in report["violations"]]
        assert kinds == ["monotonic-serving-gen"]
        assert report["violations"][0]["subject"] == "ghost"

    def test_soak_with_invariants_enabled_stays_clean(self):
        from repro.soak.harness import SoakConfig, run_soak

        result = run_soak(
            SoakConfig(seed=2, duration_s=4.0, num_aps=4,
                       fault_intensity=0.0, invariants_enabled=True)
        )
        assert result.ok
        assert result.final_metrics["invariant_violations_total"] == 0
        assert result.final_metrics["invariant_checks"] > 0


class TestCrashRecords:
    """The checker's per-crash recovery records (the gates' numbers)."""

    def _crash(self, testbed, victim, then_s):
        """Crash ``victim`` now; run ``then_s`` more."""
        from repro.faults import ApCrash, FaultPlan

        testbed.install_fault_plan(
            FaultPlan([ApCrash(at_us=testbed.sim.now, ap_id=victim)])
        )
        testbed.run_seconds(then_s)

    def test_the_served_client_recovers_on_another_ap(self):
        testbed = static_testbed()
        checker = testbed.install_invariant_checker()
        testbed.run_seconds(0.5)
        victim = testbed.serving_ap_of(0)
        self._crash(testbed, victim, 0.5)
        assert checker.finish()["ok"]
        (record,) = checker.records
        assert (record.action, record.subject, record.region) == (
            "crash", victim, 0,
        )
        assert record.affected == ["client0"]
        ((client, latency_us, new_ap),) = record.recovered
        assert client == "client0" and new_ap != victim
        assert 0 < latency_us < 500_000
        assert record.unrecovered() == record.untracked == []

    def test_a_departed_client_is_not_affected(self):
        """A rider who left before the crash is nobody to recover (a
        serving-timeline join counts them as unrecovered)."""
        testbed = static_testbed()
        checker = testbed.install_invariant_checker()
        testbed.run_seconds(0.5)
        last_ap = testbed.serving_ap_of(0)
        assert testbed.depart_client("client0")
        self._crash(testbed, last_ap, 0.5)
        checker.finish()
        (record,) = checker.records
        assert record.subject == last_ap
        assert record.affected == []

    def test_a_client_departing_mid_recovery_closes_without_verdict(self):
        testbed = static_testbed()
        checker = testbed.install_invariant_checker()
        testbed.run_seconds(0.5)
        self._crash(testbed, testbed.serving_ap_of(0), 0.01)  # undetected
        assert testbed.depart_client("client0")
        testbed.run_seconds(0.5)
        checker.finish()
        (record,) = checker.records
        assert record.affected == record.untracked == ["client0"]
        assert record.recovered == []
        assert record.unrecovered() == []


class TestHandlerHardeningRegressions:
    """The previously-latent bugs the adversary gate flushed out: each
    test replays the exact stale/duplicated message that used to
    corrupt state and asserts the hardened handler refuses it."""

    def _warm_testbed(self):
        testbed = static_testbed()
        testbed.run_seconds(0.3)  # registration + first serving-update
        return testbed

    def test_stale_stop_does_not_revoke_serving_duty(self):
        """A replayed stop from an old round used to silently strip the
        AP of duty the controller still believes it holds — the client
        went dark with no handshake to repair it."""
        testbed = self._warm_testbed()
        ap = serving_ap(testbed)
        assert "client0" in ap._serving
        ap._switch_handled["client0"] = 5
        ap._on_backhaul(
            "controller", "stop",
            StopMsg(client="client0", target_ap="ap1", switch_id=3),
        )
        assert "client0" in ap._serving  # duty intact
        assert ap.stats["stale_stops"] == 1
        assert ap.stats["stops_handled"] == 0

    def test_equal_switch_id_stop_still_reexecutes(self):
        """The live round's own retransmission must keep re-running the
        handler — that *is* the loss-recovery path."""
        testbed = self._warm_testbed()
        ap = serving_ap(testbed)
        ap._switch_handled["client0"] = 3
        ap._on_backhaul(
            "controller", "stop",
            StopMsg(client="client0", target_ap="ap1", switch_id=3),
        )
        assert ap.stats["stale_stops"] == 0
        assert ap.stats["stops_handled"] == 1

    def test_replayed_takeover_does_not_rehome(self):
        """A replayed ctrl-takeover with an old epoch used to point the
        AP back at a dead controller incarnation, and would hand it
        claims and a directory replay."""
        testbed = self._warm_testbed()
        ap = serving_ap(testbed)
        home = ap._controller_id
        ap._ctrl_epoch = 500_000
        claims_before = ap.stats["serving_claims_sent"]
        ap._on_backhaul("controller-z", "ctrl-takeover", 400_000)
        assert ap._controller_id == home
        assert ap.stats["stale_takeovers"] == 1
        assert ap.stats["rehomed"] == 0
        assert ap.stats["serving_claims_sent"] == claims_before

    def test_replayed_ctrl_hello_does_not_resync(self):
        """A restarted controller announces itself with ctrl-takeover
        from its own id.  A duplicate or older copy of that
        announcement must not resync the AP: no claims, no edge report
        and no directory replay to the home controller."""
        testbed = self._warm_testbed()
        ap = serving_ap(testbed)
        home = ap._controller_id
        ap._ctrl_epoch = 500_000
        claims_before = ap.stats["serving_claims_sent"]
        sent = []
        original_send = ap._backhaul.send
        ap._backhaul.send = lambda *a, **kw: sent.append(a[2])
        try:
            ap._on_backhaul(home, "ctrl-takeover", 500_000)
            ap._on_backhaul(home, "ctrl-takeover", 400_000)
        finally:
            ap._backhaul.send = original_send
        assert ap._controller_id == home
        assert ap._ctrl_epoch == 500_000
        assert ap.stats["stale_takeovers"] == 2
        assert ap.stats["serving_claims_sent"] == claims_before
        assert "edge-report" not in sent
        assert "sta-sync" not in sent

    def test_replayed_sta_sync_does_not_resurrect_departed_client(self):
        """Controller side: a pre-departure sta-sync replayed after the
        departure used to recreate the client's selection loop and
        serving entry with no radio behind them — leaked forever."""
        testbed = self._warm_testbed()
        controller = testbed.controller
        assert controller.client_state("client0") is not None
        original = controller.directory.get("client0")
        controller.deregister_client("client0")
        testbed.run_seconds(0.1)
        assert controller.client_state("client0") is None
        controller.register_association(
            StaInfo(
                client="client0",
                associated_at_us=original.associated_at_us,
                first_ap=original.first_ap,
            )
        )
        assert controller.client_state("client0") is None  # stays gone
        assert controller.stats["stale_sta_syncs"] == 1

    def test_replayed_sta_sync_does_not_reopen_departed_ap_state(self):
        testbed = self._warm_testbed()
        ap = serving_ap(testbed)
        original = ap.directory.get("client0")
        ap._on_backhaul("controller", "client-departed", "client0")
        assert not ap.directory.is_associated("client0")
        ap._on_backhaul("controller", "sta-sync", original)
        assert not ap.directory.is_associated("client0")
        assert ap.stats["stale_sta_syncs"] == 1
        # A genuinely fresh re-association lifts the guard.
        readmit = StaInfo(
            client="client0",
            associated_at_us=testbed.sim.now + 1,
            first_ap=original.first_ap,
        )
        ap._on_backhaul("controller", "sta-sync", readmit)
        assert ap.directory.is_associated("client0")

    def test_newer_serving_update_relinquishes_split_brain_duty(self):
        """The partitioned-AP split brain: a one-way partition hides a
        failover from the serving AP, which keeps transmitting after
        the controller re-homed the client.  The first serving-update
        that reaches it must strip duty immediately."""
        testbed = self._warm_testbed()
        ap = serving_ap(testbed)
        assert "client0" in ap._serving
        gen = ap._serving_gen_view.get("client0", (0, 0))
        newer = (gen[0], gen[1] + 1)
        ap._on_backhaul(
            "controller", "serving-update", ("client0", "ap9", newer)
        )
        assert "client0" not in ap._serving
        assert ap.stats["serving_relinquished"] == 1
        assert ap._serving_view["client0"] == "ap9"

    def test_stale_serving_update_does_not_relinquish(self):
        """The mirror image: an *old* replayed serving-update naming a
        different AP must be ignored — the generation tag is what makes
        the relinquish safe."""
        testbed = self._warm_testbed()
        ap = serving_ap(testbed)
        assert "client0" in ap._serving
        gen = ap._serving_gen_view.get("client0", (0, 0))
        ap._on_backhaul(
            "controller", "serving-update", ("client0", "ap9", gen)
        )
        assert "client0" in ap._serving
        assert ap.stats["serving_relinquished"] == 0
        assert ap.stats["stale_serving_updates"] >= 1
