"""Sharded control plane, region planning, and spatial index tests.

Covers the PR-10 surface:

* ``ApGridIndex`` returns exactly what the legacy linear ``min()``
  returned (random layouts, ties, predicates);
* ``plan_regions`` tiles the corridor into ``RegionSpec``s;
* per-client checkpoint state survives an extract → bytes → merge
  round trip;
* inter-shard handoffs migrate a client with zero invariant
  violations and zero duplicate deliveries;
* sharded runs are seed-deterministic;
* the preset registry resolves declarative specs;
* docs/scaling.md's "What composes with sharding" table, row by row.
"""

from __future__ import annotations

import json
import random
import re
from pathlib import Path

import pytest

from repro.core.config import WgttConfig
from repro.faults.plan import (
    ApCrash,
    ControllerCrash,
    FaultPlan,
    GrayFailure,
    LinkJitter,
    MsgCorruption,
    OneWayPartition,
    Partition,
)
from repro.ha.checkpoint import canonical_json
from repro.mobility.road import Position, Road
from repro.mobility.vehicle import VehicleTrack
from repro.scenarios.presets import (
    preset,
    preset_names,
    shard_corridor_config,
)
from repro.mobility.spatial import ApGridIndex
from repro.scenarios.testbed import Testbed, TestbedConfig
from repro.shard.config import ShardConfig
from repro.shard.manager import HANDOFF_RETRY_LIMIT, HANDOFF_TIMEOUT_US, plan_regions
from repro.soak import ChurnDriver, ClientSession, WorkloadPlan
from repro.sim.rng import RngRegistry


def _sharded_config(
    num_shards: int = 2,
    num_aps: int = 8,
    seed: int = 3,
    speed_mph: float = 25.0,
    **overrides,
) -> TestbedConfig:
    config = shard_corridor_config(
        num_shards=num_shards, num_aps=num_aps, seed=seed, **overrides
    )
    road = Road(length_m=config.road_length_m())
    config.client_tracks = [
        VehicleTrack(
            road, start_x=config.client_start_x_m, speed_mph=speed_mph
        )
    ]
    return config


# ----------------------------------------------------------------------
# spatial index
# ----------------------------------------------------------------------


class TestApGridIndex:
    def _linear_oracle(self, aps, position, predicate=None):
        """The legacy scan: min() over insertion order (ties keep the
        first), distances computed for every candidate."""
        best, best_dist = None, None
        for ap_id, ap_pos in aps:
            if predicate is not None and not predicate(ap_id):
                continue
            dist = ap_pos.distance_to(position)
            if best_dist is None or dist < best_dist:
                best, best_dist = ap_id, dist
        return best

    def test_matches_linear_oracle_random_layouts(self):
        rng = random.Random(7)
        for trial in range(20):
            count = rng.randint(1, 60)
            aps = []
            index = ApGridIndex(bucket_m=rng.choice([5.0, 25.0, 80.0]))
            for i in range(count):
                pos = Position(
                    rng.uniform(-40.0, 600.0), -12.0, rng.uniform(3.0, 12.0)
                )
                aps.append((f"ap{i}", pos))
                index.add(f"ap{i}", pos)
            for _ in range(40):
                probe = Position(rng.uniform(-60.0, 660.0), 0.0, 1.5)
                assert index.nearest(probe) == self._linear_oracle(aps, probe)

    def test_tie_breaks_by_insertion_order(self):
        index = ApGridIndex()
        left = Position(10.0, 0.0, 0.0)
        right = Position(30.0, 0.0, 0.0)
        index.add("apA", left)
        index.add("apB", right)
        # Probe equidistant from both: the first-inserted AP wins,
        # exactly as min() keeps the first of equal keys.
        assert index.nearest(Position(20.0, 0.0, 0.0)) == "apA"

    def test_predicate_filters_and_may_empty(self):
        rng = random.Random(11)
        aps = []
        index = ApGridIndex()
        for i in range(25):
            pos = Position(rng.uniform(0.0, 300.0), -12.0, 10.0)
            aps.append((f"ap{i}", pos))
            index.add(f"ap{i}", pos)
        allow = lambda ap_id: int(ap_id[2:]) % 3 == 0
        for _ in range(30):
            probe = Position(rng.uniform(0.0, 300.0), 0.0, 1.5)
            assert index.nearest(probe, predicate=allow) == (
                self._linear_oracle(aps, probe, predicate=allow)
            )
        assert index.nearest(Position(0, 0, 0), predicate=lambda _: False) is None

    def test_empty_index(self):
        assert ApGridIndex().nearest(Position(0, 0, 0)) is None

    def test_scanned_stays_local_as_deployment_grows(self):
        """The candidate-set claim: per-query scan cost is O(nearby),
        not O(N)."""
        costs = {}
        for num_aps in (8, 200):
            index = ApGridIndex()
            config = TestbedConfig(num_aps=num_aps)
            for i, x in enumerate(config.ap_xs()):
                index.add(f"ap{i}", Position(x, -12.0, 10.0))
            for k in range(64):
                index.nearest(
                    Position(config.road_length_m() * k / 63, 0.0, 1.5)
                )
            costs[num_aps] = index.scanned / index.queries
        assert costs[200] < 2 * costs[8]
        assert costs[200] < 16  # nowhere near the 200 a linear scan pays


# ----------------------------------------------------------------------
# region planning
# ----------------------------------------------------------------------


class TestRegionPlanning:
    def test_single_region_when_sharding_off(self):
        regions = plan_regions(TestbedConfig())
        assert len(regions) == 1
        assert list(regions[0].ap_ids) == [f"ap{i}" for i in range(8)]
        assert regions[0].controller_id == "controller"
        assert regions[0].standby_id is None

    def test_contiguous_even_partition(self):
        config = shard_corridor_config(num_shards=3, num_aps=8)
        regions = plan_regions(config)
        sizes = [len(r.ap_xs) for r in regions]
        assert sizes == [3, 3, 2]  # even as possible, larger first
        flat = [ap for r in regions for ap in r.ap_ids]
        assert flat == [f"ap{i}" for i in range(8)]
        assert [r.controller_id for r in regions] == [
            "controller-s0", "controller-s1", "controller-s2",
        ]
        # Regions tile the corridor left to right.
        for left, right in zip(regions, regions[1:]):
            assert left.ap_xs[-1] < right.ap_xs[0]

    def test_per_shard_standby_ids(self):
        config = shard_corridor_config(
            num_shards=2, wgtt=WgttConfig(ha_enabled=True)
        )
        regions = plan_regions(config)
        assert [r.standby_id for r in regions] == [
            "standby-s0", "standby-s1",
        ]


class TestApXsMemoization:
    def test_cached_and_mutation_safe(self):
        config = TestbedConfig(num_aps=12)
        first = config.ap_xs()
        first.append(1e9)  # caller mutation must not poison the cache
        assert config.ap_xs() == first[:-1]

    def test_invalidated_when_geometry_changes(self):
        config = TestbedConfig(num_aps=4)
        assert len(config.ap_xs()) == 4
        config.num_aps = 6
        assert len(config.ap_xs()) == 6


# ----------------------------------------------------------------------
# per-client checkpoint state
# ----------------------------------------------------------------------


class TestClientStateRoundtrip:
    def _testbed(self):
        tb = Testbed(_sharded_config())
        tb.add_uplink_udp_flow(0, rate_bps=1e6)[0].start()
        tb.add_downlink_udp_flow(0, rate_bps=2e6)[0].start()
        tb.run_seconds(1.0)
        return tb

    def test_bytes_round_trip_is_lossless(self):
        tb = self._testbed()
        source = tb.shard_manager.shards[0].controller
        state = source.client_slice("client0")
        assert state["client"] == "client0"
        assert state["state"]["serving_ap"] in source.ap_ids()
        assert json.loads(canonical_json(state)) == state

    def test_merge_installs_client_on_target(self):
        tb = self._testbed()
        manager = tb.shard_manager
        source = manager.shards[0].controller
        target = manager.shards[1].controller
        state = source.client_slice("client0")
        source.deregister_client("client0")
        assert target.merge_client(state, serving_ap="ap4")
        assert target.tracks("client0")
        assert target.serving_ap("client0") == "ap4"
        # Selection history crossed the boundary with the client.
        assert target.selector.client_snapshot("client0")
        # Merging again is a no-op (duplicate handoff message).
        assert not target.merge_client(state, serving_ap="ap4")

    def test_extract_requires_tracked_client(self):
        tb = self._testbed()
        with pytest.raises(KeyError):
            tb.shard_manager.shards[0].controller.client_slice("nobody")


# ----------------------------------------------------------------------
# inter-shard handoff, end to end
# ----------------------------------------------------------------------


class TestInterShardHandoff:
    #: The client crosses the boundary at the 3.1 s scan tick (seed 3,
    #: 25 mph); the handoff is merged and acked within a millisecond.
    HANDOFF_AT_US = 3_100_000

    def _run(self, fault_plan=None, **overrides):
        tb = Testbed(_sharded_config(**overrides))
        checker = tb.install_invariant_checker()
        if fault_plan is not None:
            tb.install_fault_plan(fault_plan)
        tb.add_downlink_udp_flow(0, rate_bps=4e6)[0].start()
        source, sink = tb.add_uplink_udp_flow(0, rate_bps=1e6)
        source.start()
        tb.run_seconds(5.0)
        return tb, checker.finish(), sink

    def _lose(self, kinds, duration_us):
        """Every ``kinds`` message on the backhaul is lost from just
        before the handoff for ``duration_us``."""
        return FaultPlan(
            [
                MsgCorruption(
                    at_us=self.HANDOFF_AT_US - 10_000,
                    duration_us=duration_us,
                    kinds=frozenset(kinds),
                    probability=1.0,
                )
            ]
        )

    def test_handoff_completes_with_zero_violations(self):
        tb, report, sink = self._run()
        manager = tb.shard_manager
        assert manager.stats["handoffs_completed"] >= 1
        assert manager.stats["handoffs_abandoned"] == 0
        assert report["ok"], report["violations"]
        assert report["counts"]["no-duplicate-delivery"] == 0
        assert len(sink.arrivals) > 0

    def test_lost_ack_is_retried_and_the_retransmission_re_acked(self):
        """The first ack is lost inside one timeout: the sender resends
        the same handoff id once, the receiver's completed-id cache acks
        it without merging again, and the client stays on shard 1."""
        tb, report, sink = self._run(
            self._lose({"shard-handoff-ack"}, HANDOFF_TIMEOUT_US - 10_000)
        )
        stats = tb.shard_manager.stats
        assert stats["handoffs_initiated"] == 1
        assert stats["handoff_retries"] == 1
        assert stats["handoff_duplicates"] == 1  # re-acked, not re-merged
        assert stats["handoffs_completed"] == 1
        assert stats["handoffs_abandoned"] == 0
        assert not tb.shard_manager.handoff_in_flight("client0")
        assert report["ok"], report["violations"]
        assert tb.shard_manager.owner_of("client0") == 1

    @pytest.mark.parametrize(
        "kinds",
        [{"shard-handoff-ack"}, {"shard-handoff", "shard-handoff-ack"}],
        ids=["acks-lost", "transfer-and-acks-lost"],
    )
    def test_handoff_past_the_retry_limit_is_abandoned_and_heals(self, kinds):
        """No ack gets through for longer than every retransmission: the
        handoff is abandoned and the client is associated afresh on the
        target shard (a no-op when the transfer itself was merged), and
        delivers again there."""
        window_us = (HANDOFF_RETRY_LIMIT + 2) * HANDOFF_TIMEOUT_US
        tb, report, sink = self._run(self._lose(kinds, window_us))
        manager = tb.shard_manager
        assert manager.stats["handoff_retries"] == HANDOFF_RETRY_LIMIT
        assert manager.stats["handoffs_abandoned"] == 1
        assert manager.stats["handoffs_completed"] == (
            0 if "shard-handoff" in kinds else 1
        )
        assert not manager.handoff_in_flight("client0")
        assert report["ok"], report["violations"]
        assert manager.owner_of("client0") == 1
        assert manager.shards[1].controller.tracks("client0")
        assert not manager.shards[0].controller.tracks("client0")
        healed_at = self.HANDOFF_AT_US + window_us
        assert any(t > healed_at for t, *_ in sink.arrivals)

    def test_client_state_lives_exactly_on_owner(self):
        tb, report, _ = self._run()
        manager = tb.shard_manager
        owner = manager.owner_of("client0")
        assert owner == 1  # crossed the single boundary
        assert manager.shards[1].controller.tracks("client0")
        assert not manager.shards[0].controller.tracks("client0")
        serving = tb.serving_ap_of(0)
        assert serving in manager.shards[1].aps

    def test_per_shard_ha_topology(self):
        tb, report, _ = self._run(wgtt=WgttConfig(ha_enabled=True))
        assert report["ok"], report["violations"]
        assert tb.shard_manager.stats["handoffs_completed"] >= 1
        for shard in tb.shard_manager.shards:
            assert shard.standby is not None
            assert shard.active_controller() is shard.controller

    def test_sharding_requires_instant_association(self):
        config = _sharded_config()
        config.instant_association = False
        with pytest.raises(ValueError, match="instant_association"):
            Testbed(config)


# ----------------------------------------------------------------------
# what composes with sharding (docs/scaling.md holds the same table)
# ----------------------------------------------------------------------


def _controller_and_ap_faults() -> FaultPlan:
    """Region 0 loses its primary before the client leaves it; region 1
    loses an AP for a while."""
    return FaultPlan(
        [
            ControllerCrash(at_us=100_000, controller_id="controller-s0"),
            ApCrash(at_us=200_000, ap_id="ap6", down_us=200_000),
        ]
    )


#: Row label (the docs table's first column) -> config overrides for a
#: row that works.
WORKS = {
    "wgtt.ha_enabled": lambda: dict(wgtt=WgttConfig(ha_enabled=True)),
    "fault_plan": lambda: dict(
        wgtt=WgttConfig(ha_enabled=True),
        fault_plan=_controller_and_ap_faults(),
    ),
    "install_invariant_checker()": dict,
    "channel_plan": lambda: dict(channel_plan=[1, 6, 11]),
    "ChurnDriver": dict,
}

#: Row label -> (what to construct, the error it must raise by saying).
REFUSED = {
    "instant_association=False": (
        lambda: Testbed(_sharded_config(instant_association=False)),
        "instant_association",
    ),
    'scheme="baseline"': (
        lambda: Testbed(_sharded_config(scheme="baseline")),
        "wgtt scheme",
    ),
}


class TestComposition:
    def test_the_docs_table_is_these_rows(self):
        text = (
            Path(__file__).resolve().parents[1] / "docs" / "scaling.md"
        ).read_text()
        section = text.split("## What composes with sharding")[1]
        rows = dict(
            re.findall(
                r"^\| `(.+?)` \| (works|`ValueError`) \|",
                section.split("\n## ")[0],
                flags=re.M,
            )
        )
        assert {k for k, v in rows.items() if v == "works"} == set(WORKS)
        assert {k for k, v in rows.items() if v != "works"} == set(REFUSED)

    @pytest.mark.parametrize("row", sorted(WORKS))
    def test_works(self, row):
        """One second from just short of the boundary: a handoff
        completes and the checker has nothing to say."""
        tb = Testbed(_sharded_config(client_start_x_m=32.0, **WORKS[row]()))
        checker = tb.install_invariant_checker()
        tb.add_downlink_udp_flow(0, rate_bps=4e6)[0].start()
        tb.add_uplink_udp_flow(0, rate_bps=1e6)[0].start()
        if row == "ChurnDriver":
            rider = ClientSession(
                client_id="rider", arrive_us=0, dwell_us=600_000,
                speed_mph=15.0, direction=1, start_x=50.0, flows=(),
            )
            churn = ChurnDriver(tb, WorkloadPlan(sessions=[rider]))
            churn.arm()
        tb.run_seconds(1.0)
        report = checker.finish()
        assert report["ok"], report["violations"]
        assert tb.shard_manager.stats["handoffs_completed"] >= 1
        assert sorted(report["counts"]) == [
            "bounded-retry-storm",
            "liveness-agreement",
            "no-duplicate-delivery",
            "single-active-controller",
            "single-owner-shard",
            "single-serving-ap",
            "switch-span-terminates",
        ]
        if row == "wgtt.ha_enabled":
            assert [s.standby.controller_id for s in tb.shards] == [
                "standby-s0", "standby-s1",
            ]
        elif row == "fault_plan":
            assert tb.shards[0].standby.promoted
            assert tb.obs.metrics.snapshot()["faults_executed"] == 3
            # Each crash is recorded in its own region.
            kill, ap_crash = checker.records
            assert (kill.action, kill.subject, kill.region) == (
                "ctrl-crash", "controller-s0", 0,
            )
            assert kill.promotion_us == 60_150
            assert kill.recovered == [("client0", 60_150, "ap3")]
            assert (ap_crash.action, ap_crash.subject, ap_crash.region) == (
                "crash", "ap6", 1,
            )
            assert ap_crash.affected == []
        elif row == "channel_plan":
            serving = tb.wgtt_aps[tb.serving_ap_of(0)]
            assert serving.ap_id in tb.shards[1].aps
            assert tb.clients[0].device.channel == serving.device.channel
        elif row == "ChurnDriver":
            assert churn.stats["arrivals"] == churn.stats["departures"] == 1
            assert churn.stats["dereg_deferred"] == 0
            assert [len(s.controller.tracked_clients()) for s in tb.shards] == [0, 1]

    @pytest.mark.parametrize("row", sorted(REFUSED))
    def test_refused_at_construction(self, row):
        build, message = REFUSED[row]
        with pytest.raises(ValueError, match=message):
            build()

    def test_fault_plan_ids_are_checked_when_armed(self):
        """A misspelt id fails Testbed(config), not the run at the
        instant the fault fires."""
        plan = FaultPlan(
            [ControllerCrash(at_us=1_000_000, controller_id="controller-s9")]
        )
        with pytest.raises(KeyError, match="unknown controller 'controller-s9'"):
            Testbed(_sharded_config(fault_plan=plan))
        with pytest.raises(KeyError, match="unknown AP 'ap8'"):
            Testbed(_sharded_config()).install_fault_plan(
                FaultPlan([ApCrash(at_us=1_000_000, ap_id="ap8")])
            )

    def test_every_id_a_fault_names_is_checked(self):
        """Not only crash targets.  A corridor has no node called
        "controller" (the ``random()`` / ``soak()`` default); a window
        opened on a node nobody is used to count into
        ``faults_executed`` and inject nothing."""
        window = dict(at_us=100_000, duration_us=100_000)
        tb = Testbed(_sharded_config())
        for event, unknown in [
            (GrayFailure(ap_id="ap999", **window), "AP 'ap999'"),
            (LinkJitter(src="controller", dst="ap0", jitter_us=1_000, **window),
             "backhaul node 'controller'"),
            (OneWayPartition(src="ap0", dst="controller", **window),
             "backhaul node 'controller'"),
            (Partition(side_a={"ap0"}, side_b={"controller"}, **window),
             "backhaul node 'controller'"),
        ]:
            with pytest.raises(KeyError, match=f"unknown {unknown}"):
                tb.install_fault_plan(FaultPlan([event]))

        def drawn(**where):
            return FaultPlan.random(
                RngRegistry(3), ["ap0", "ap1"], 10_000_000, {LinkJitter: 1.0},
                **where,
            )

        with pytest.raises(KeyError, match="backhaul node 'controller'"):
            tb.install_fault_plan(drawn())
        tb.run_seconds(0.3)
        assert tb.fault_injector.events == []  # nothing had been scheduled
        tb.install_fault_plan(drawn(controller_id="controller-s0"))


class TestShardDeterminism:
    def test_same_seed_same_outcome_digest(self):
        from repro.experiments.common import outcome_digest
        from repro.experiments.ext_shard import cell

        first = cell(3, num_shards=2, fleet=1, duration_s=4.0)
        again = cell(3, num_shards=2, fleet=1, duration_s=4.0)
        assert outcome_digest(first) == outcome_digest(again)
        assert first["handoffs_completed"] >= 1


# ----------------------------------------------------------------------
# preset registry
# ----------------------------------------------------------------------


class TestPresetRegistry:
    def test_names_sorted_and_resolvable(self):
        names = preset_names()
        assert names == sorted(names)
        assert "shard-corridor" in names
        for name in names:
            assert isinstance(preset(name), TestbedConfig)

    def test_unknown_preset_lists_choices(self):
        with pytest.raises(ValueError, match="shard-corridor"):
            preset("nope")

    def test_shard_corridor_is_declarative(self):
        config = preset("shard-corridor", seed=9)
        assert config.shard is not None
        assert config.seed == 9
        assert config.shard.num_shards == 2
        # Nothing built yet: a spec, not a testbed.
        assert isinstance(config, TestbedConfig)

    def test_overrides_pass_through(self):
        config = shard_corridor_config(
            num_shards=3, num_aps=12, seed=4,
            shard=ShardConfig(num_shards=3, boundary_hysteresis_m=5.0),
        )
        assert config.num_aps == 12
        assert config.shard.boundary_hysteresis_m == 5.0
