"""Soak subsystem: workload determinism, churn lifecycle, admission
pacing under overload, and the SLO guard's invariants."""

import copy
import json

import pytest

from repro.core.config import WgttConfig
from repro.core.controller import WgttController
from repro.core.cyclic_queue import CyclicQueue
from repro.net.backhaul import EthernetBackhaul
from repro.net.packet import Packet
from repro.scenarios.presets import shard_corridor_config
from repro.scenarios.testbed import Testbed, TestbedConfig
from repro.sim import RngRegistry, Simulator
from repro.sim.engine import MS, SECOND
from repro.soak import (
    ChurnDriver,
    ClientSession,
    SloBudgets,
    SoakConfig,
    SoakHarness,
    SoakViolationError,
    WorkloadConfig,
    WorkloadPlan,
    run_soak,
)


# ----------------------------------------------------------------------
# workload generation
# ----------------------------------------------------------------------


def _plan(seed=7, duration_s=120.0, **kw):
    return WorkloadPlan.generate(
        RngRegistry(seed).spawn("soak-workload"),
        int(duration_s * SECOND),
        300.0,
        WorkloadConfig(**kw),
    )


class TestWorkloadPlan:
    def test_same_seed_same_plan(self):
        a = _plan(seed=7)
        b = _plan(seed=7)
        assert a.sessions == b.sessions

    def test_different_seed_different_plan(self):
        assert _plan(seed=7).sessions != _plan(seed=8).sessions

    def test_arrivals_sorted_within_horizon(self):
        plan = _plan(duration_s=60.0, arrival_rate_per_s=2.0)
        times = [s.arrive_us for s in plan]
        assert times == sorted(times)
        assert all(0 <= t < 60 * SECOND for t in times)

    def test_flow_sizes_heavy_tailed_and_bounded(self):
        plan = _plan(
            duration_s=600.0,
            arrival_rate_per_s=2.0,
            size_min_bytes=10_000,
            size_max_bytes=10_000_000,
        )
        sizes = [f.size_bytes for s in plan for f in s.flows]
        assert len(sizes) > 100
        assert all(10_000 <= x <= 10_000_000 for x in sizes)
        sizes.sort()
        median = sizes[len(sizes) // 2]
        # Heavy tail: the largest draw dwarfs the median.
        assert sizes[-1] > 10 * median

    def test_dwell_floor_and_mobility_shape(self):
        plan = _plan(duration_s=300.0, arrival_rate_per_s=1.0)
        for s in plan:
            assert s.dwell_us >= WorkloadConfig().min_dwell_us
            assert s.direction in (1, -1)
            assert s.start_x in (0.0, 300.0)
            assert s.flows  # at least one flow per session

    def test_flow_duration_matches_size_over_rate(self):
        plan = _plan(duration_s=120.0)
        flow = plan.sessions[0].flows[0]
        expected = int(flow.size_bytes * 8 / flow.rate_bps * SECOND)
        assert flow.duration_us == max(1, expected)

    def test_rejects_bad_horizon(self):
        with pytest.raises(ValueError):
            WorkloadPlan.generate(RngRegistry(1), 0, 300.0)


# ----------------------------------------------------------------------
# cyclic-queue watermark (satellite: stats through the registry)
# ----------------------------------------------------------------------


class TestCyclicHighWatermark:
    def test_tracks_peak_pending_span(self):
        queue = CyclicQueue(size=16)
        for i in range(5):
            queue.insert(i, Packet("server", "c", 100))
        assert queue.high_watermark == 5
        for _ in range(5):
            queue.pop_head()
        # Draining never lowers the high-water mark.
        assert queue.high_watermark == 5
        for i in range(5, 13):
            queue.insert(i, Packet("server", "c", 100))
        assert queue.high_watermark == 8


# ----------------------------------------------------------------------
# mid-run churn on a live testbed
# ----------------------------------------------------------------------


def _wgtt_testbed(**wgtt_kw):
    config = TestbedConfig(
        seed=2, scheme="wgtt", wgtt=WgttConfig(**wgtt_kw)
    )
    return Testbed(config)


class TestClientChurn:
    def test_add_then_retire_returns_to_baseline(self):
        from repro.mobility.vehicle import VehicleTrack

        tb = _wgtt_testbed()
        tb.run_seconds(0.2)
        ports_before = len(tb.channel._ports)
        devices_before = len(tb.medium.devices())
        track = VehicleTrack(
            tb.road, start_x=0.0, speed_mph=15.0,
            start_time_us=tb.sim.now,
        )
        client = tb.add_client(track, client_id="riderX")
        assert tb.client_by_id("riderX") is client
        assert len(tb.channel._ports) == ports_before + 1
        tb.run_seconds(0.2)
        tb.depart_client(client_id="riderX")
        tb.retire_client("riderX")
        assert tb.client_by_id("riderX") is None
        assert tb.clients_retired == 1
        # Port/device teardown is deferred past the interference
        # horizon; after the delay both tables are back to baseline.
        tb.run_seconds(0.2)
        assert len(tb.channel._ports) == ports_before
        assert len(tb.medium.devices()) == devices_before
        assert not tb._retiring

    def test_departed_client_state_freed_everywhere(self):
        tb = _wgtt_testbed()
        src, _sink = tb.add_downlink_udp_flow(0, rate_bps=5e6)
        src.start()
        tb.run_seconds(1.0)
        cid = tb.clients[0].client_id
        controller = tb.controller
        assert cid in controller._clients
        tb.depart_client(client_id=cid)
        tb.retire_client(cid)
        src.stop()
        tb.run_seconds(0.5)
        assert cid not in controller._clients
        assert controller._index_alloc.tracked_clients() == 0
        assert controller.selector.series_count() == 0
        for ap in tb.wgtt_aps.values():
            assert cid not in ap._cyclic
            assert cid not in ap._serving

    def test_no_downlink_delivered_after_departure(self):
        """Satellite: frames must stop at the AP once the client left,
        even with the source still pushing and fan-outs in flight."""
        tb = _wgtt_testbed()
        src, sink = tb.add_downlink_udp_flow(0, rate_bps=10e6)
        src.start()
        tb.run_seconds(1.0)
        cid = tb.clients[0].client_id
        tb.depart_client(client_id=cid)
        tb.retire_client(cid)
        depart_us = tb.sim.now
        # The source keeps offering traffic for the departed client.
        tb.run_seconds(1.0)
        src.stop()
        # Nothing may arrive after the departure instant (the radio is
        # off and every AP purged the client on "client-departed").
        late = [a for a in sink.arrivals if a[0] > depart_us]
        assert late == []
        # The controller refuses the orphaned ingress explicitly.
        assert tb.controller.stats["downlink_unassociated"] > 0
        # No AP recreated a cyclic queue for the departed client.
        for ap in tb.wgtt_aps.values():
            assert cid not in ap._cyclic

    def test_departed_guard_bounded(self):
        tb = _wgtt_testbed()
        ap = next(iter(tb.wgtt_aps.values()))
        for i in range(ap._departed.cap + 50):
            ap._client_departed("controller", f"ghost{i}")
        assert len(ap._departed) == ap._departed.cap


class TestChurnDeparture:
    """Departures go through ``Testbed.depart_client``, whose answer —
    did a live control plane hear it — decides whether one is parked."""

    def test_every_region_hears_a_departure(self):
        config = shard_corridor_config(
            num_shards=2, num_aps=8, seed=3, client_tracks=[]
        )
        tb = Testbed(config)
        checker = tb.install_invariant_checker()
        plan = WorkloadPlan.generate(
            RngRegistry(3).spawn("soak-workload"),
            6 * SECOND,
            config.road_length_m(),
            WorkloadConfig(
                arrival_rate_per_s=4, mean_dwell_s=1, max_concurrent=8
            ),
        )
        churn = ChurnDriver(tb, plan)
        churn.arm()
        tb.run_seconds(6.0)
        churn.finalize()
        stats = churn.stats
        assert stats["departures"] >= 5
        assert stats["dereg_deferred"] == 0
        assert churn.pending_dereg_count() == 0
        tracked = sum(len(shard.controller._clients) for shard in tb.shards)
        assert tracked == stats["arrivals"] - stats["departures"]
        report = checker.finish()
        assert report["ok"], report["violations"]

    def test_controller_down_parks_the_departure_until_it_is_back(self):
        tb = Testbed(TestbedConfig(seed=3, client_tracks=[]))
        session = ClientSession(
            client_id="rider", arrive_us=0, dwell_us=SECOND,
            speed_mph=15.0, direction=1, start_x=0.0, flows=(),
        )
        churn = ChurnDriver(tb, WorkloadPlan(sessions=[session]))
        churn.arm()
        tb.run_seconds(0.9)
        assert "rider" in tb.controller._clients
        tb.controller.crash()
        tb.run_seconds(0.2)
        assert churn.stats["departures"] == churn.stats["dereg_deferred"] == 1
        assert churn.pending_dereg_count() == 1
        tb.run_seconds(0.5)  # one retry against the dead controller
        assert churn.pending_dereg_count() == 1
        tb.controller.restart()
        tb.run_seconds(0.6)
        assert churn.stats["dereg_retried"] == 1
        assert churn.pending_dereg_count() == 0
        assert "rider" not in tb.controller._clients


# ----------------------------------------------------------------------
# overload: the cyclic-queue budget and the pacer that keeps it
# ----------------------------------------------------------------------


def _overflow_drops(snapshot):
    return sum(
        value
        for key, value in snapshot.items()
        if key.startswith("ap_overflow_drops{")
    )


class TestOverload:
    def test_pacer_binds_and_keeps_the_overflow_budget(self):
        """A 60 Mbit/s UDP downlink overruns the 2 000 pps bucket: the
        pacer parks, releases and drops, and the serving AP's 4 096-slot
        cyclic queue overflows at most a quarter as often as in the
        same run without admission (121 against 0 at seed 2)."""
        drops = {}
        for admission in (False, True):
            tb = _wgtt_testbed(admission_enabled=admission)
            tb.add_downlink_udp_flow(0, rate_bps=60e6)[0].start()
            tb.run_seconds(2.0)
            drops[admission] = _overflow_drops(tb.obs.metrics.snapshot())
        stats = tb.controller.stats
        assert stats["admission_dropped"] > 0
        assert stats["admission_released"] > 0
        assert drops[False] > 0
        assert drops[True] <= drops[False] / 4

    def test_watermark_metrics_exported(self):
        tb = _wgtt_testbed(index_bits=8)
        src, _sink = tb.add_downlink_udp_flow(0, rate_bps=40e6)
        src.start()
        tb.run_seconds(2.0)
        snapshot = tb.obs.metrics.snapshot()
        watermarks = [
            value
            for key, value in snapshot.items()
            if key.startswith("ap_cyclic_high_watermark{")
        ]
        assert len(watermarks) == len(tb.wgtt_aps)
        assert max(watermarks) > 0
        drops = [
            value
            for key, value in snapshot.items()
            if key.startswith("ap_overflow_drops{")
        ]
        assert len(drops) == len(tb.wgtt_aps)


# ----------------------------------------------------------------------
# admission pacer
# ----------------------------------------------------------------------


def _controller_rig(**config_kw):
    sim = Simulator()
    backhaul = EthernetBackhaul(sim)
    controller = WgttController(
        sim, backhaul, RngRegistry(1), WgttConfig(**config_kw)
    )
    sent = []
    for ap_id in ("ap0", "ap1"):
        backhaul.register(
            ap_id,
            lambda src, kind, payload, ap=ap_id: sent.append(
                (ap, kind, payload)
            ),
        )
        controller.add_ap(ap_id)
    return sim, controller, sent


def _register(controller, sim, client="client0"):
    from repro.core.assoc_sync import StaInfo

    controller.register_association(
        StaInfo(client=client, associated_at_us=sim.now, first_ap="ap0")
    )


class TestAdmissionPacer:
    def test_disabled_by_default(self):
        _sim, controller, _sent = _controller_rig()
        assert controller._pacer is None

    def test_burst_passes_then_shapes(self):
        sim, controller, sent = _controller_rig(
            admission_enabled=True, admission_burst=4,
            admission_rate_pps=100, admission_queue_slots=8,
        )
        _register(controller, sim)
        for _ in range(6):
            controller.accept_downlink(Packet("server", "client0", 500))
        stats = controller.stats
        assert stats["admission_passthrough"] == 4
        assert stats["admission_enqueued"] == 2
        assert stats["downlink_accepted"] == 4
        # Tokens refill at 100 pps: after 40 ms the release timer has
        # drained the two parked packets in arrival order.
        sim.run(until_us=sim.now + 40 * MS)
        assert stats["admission_released"] == 2
        assert stats["downlink_accepted"] == 6

    def test_queue_overflow_drops_counted(self):
        sim, controller, _sent = _controller_rig(
            admission_enabled=True, admission_burst=1,
            admission_rate_pps=10, admission_queue_slots=2,
        )
        _register(controller, sim)
        for _ in range(6):
            controller.accept_downlink(Packet("server", "client0", 500))
        assert controller.stats["admission_passthrough"] == 1
        assert controller.stats["admission_enqueued"] == 2
        assert controller.stats["admission_dropped"] == 3

    def test_round_robin_fairness_across_clients(self):
        sim, controller, _sent = _controller_rig(
            admission_enabled=True, admission_burst=1,
            admission_rate_pps=1000, admission_queue_slots=64,
        )
        _register(controller, sim, "client0")
        _register(controller, sim, "client1")
        released = []
        original = controller._release_downlink

        def spy(client_id, packet):
            released.append(client_id)
            original(client_id, packet)

        controller._pacer._release_fn = spy
        for _ in range(5):
            controller.accept_downlink(Packet("server", "client0", 500))
            controller.accept_downlink(Packet("server", "client1", 500))
        sim.run(until_us=sim.now + SECOND)
        assert released.count("client0") == 4
        assert released.count("client1") == 4
        # Interleaved round-robin, not one client first.
        assert released[:2] in (
            ["client0", "client1"], ["client1", "client0"]
        )

    def test_departure_flushes_bucket(self):
        sim, controller, _sent = _controller_rig(
            admission_enabled=True, admission_burst=1,
            admission_rate_pps=10, admission_queue_slots=8,
        )
        _register(controller, sim)
        for _ in range(4):
            controller.accept_downlink(Packet("server", "client0", 500))
        assert controller._pacer.backlog() == 3
        controller.deregister_client("client0")
        assert controller._pacer.backlog() == 0
        assert controller._pacer.tracked_clients() == 0
        assert controller.stats["admission_dropped"] == 3

    def test_crash_halts_pacer(self):
        sim, controller, _sent = _controller_rig(
            admission_enabled=True, admission_burst=1,
            admission_rate_pps=10, admission_queue_slots=8,
        )
        _register(controller, sim)
        for _ in range(3):
            controller.accept_downlink(Packet("server", "client0", 500))
        controller.crash()
        assert controller._pacer.backlog() == 0
        assert not controller._pacer._release_timer.armed

    def test_restore_halts_pacer(self):
        """Regression: restore kept the pacing backlog of the state it
        replaced (only crash halted the pacer), and the release timer
        then fanned it out under the restored state."""
        sim, controller, _sent = _controller_rig(
            admission_enabled=True, admission_burst=1,
            admission_rate_pps=10, admission_queue_slots=8,
        )
        _register(controller, sim)
        for _ in range(5):
            controller.accept_downlink(Packet("server", "client0", 500))
        assert controller._pacer.backlog() == 4
        controller.restore(controller.snapshot())
        assert controller._pacer.backlog() == 0
        sim.run(until_us=sim.now + SECOND)
        assert controller.stats["admission_released"] == 0


# ----------------------------------------------------------------------
# harness + guard, end to end (short runs)
# ----------------------------------------------------------------------


def _short_config(**kw):
    defaults = dict(
        seed=5,
        duration_s=6.0,
        workload=WorkloadConfig(
            arrival_rate_per_s=1.0,
            mean_dwell_s=3.0,
            rate_min_bps=0.25e6,
            rate_max_bps=1e6,
            size_min_bytes=16 * 1024,
            size_max_bytes=512 * 1024,
        ),
    )
    defaults.update(kw)
    return SoakConfig(**defaults)


class TestSoakHarness:
    def test_double_run_fingerprint_identical(self):
        a = run_soak(_short_config())
        b = run_soak(_short_config())
        assert a.fingerprint == b.fingerprint
        assert a.churn_stats == b.churn_stats
        assert a.ok and b.ok

    def test_run_leaves_its_config_untouched(self):
        """The guard reads the rider cap off the churn driver; the
        harness writes nothing back into the caller's config."""
        config = _short_config(duration_s=2.0)
        config.workload.max_concurrent = 8
        before = copy.deepcopy(config)
        SoakHarness(config).run()
        assert config == before

    def test_seed_changes_fingerprint(self):
        a = run_soak(_short_config())
        c = run_soak(_short_config(seed=6))
        assert a.fingerprint != c.fingerprint

    def test_fingerprint_is_of_the_run_not_of_the_caches(self, monkeypatch):
        """The medium's preamble prewarm only seeds a memo: without it
        every receiver computes the same number itself.  Same run,
        different cache counters -- same fingerprint."""
        a = run_soak(_short_config())
        monkeypatch.setattr("repro.mac.medium.prewarm_receivers", lambda rows: None)
        b = run_soak(_short_config())
        hits = "phy_memo{memo=preamble,stat=hits}"
        assert a.final_metrics[hits] > b.final_metrics[hits]
        assert a.fingerprint == b.fingerprint
        assert a.churn_stats == b.churn_stats

    def test_admission_soak_runs_clean(self):
        result = run_soak(_short_config(admission_enabled=True))
        assert result.ok
        assert result.churn_stats["arrivals"] > 0

    def test_guard_detects_violation(self):
        result = run_soak(
            _short_config(
                budgets=SloBudgets(max_pending_events=1),
            )
        )
        assert not result.ok
        assert any(
            v["subject"] == "engine_pending_events"
            and v["invariant"] == "bounded-memory"
            for v in result.violations
        )

    def test_fail_fast_raises(self):
        with pytest.raises(SoakViolationError):
            run_soak(
                _short_config(
                    budgets=SloBudgets(max_pending_events=1),
                    fail_fast=True,
                )
            )

    def test_bad_interval_is_refused_before_the_telemetry_file(self, tmp_path):
        path = tmp_path / "soak.jsonl"
        with pytest.raises(ValueError, match="positive"):
            run_soak(_short_config(sample_interval_s=0, telemetry_path=str(path)))
        assert not path.exists()

    def test_telemetry_stream_well_formed(self, tmp_path):
        path = tmp_path / "soak.jsonl"
        result = run_soak(_short_config(telemetry_path=str(path)))
        assert result.ok
        kinds = []
        for line in path.read_text().splitlines():
            record = json.loads(line)
            assert "t_us" in record and "kind" in record
            kinds.append(record["kind"])
        assert kinds.count("sample") == result.samples
        assert kinds.count("checkpoint") >= 1
        assert kinds[-1] == "summary"
