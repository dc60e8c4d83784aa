"""The medium's audibility index is exact, bounded and flat in AP count.

``WirelessMedium._complete`` visits only the radios that may hear a
frame: the roaming ones plus the fixed ones inside the sender's sound
radius.  The walk over *every* registered radio that it replaced lives
here, in the test tree, as the reference:

* for every frame completion of a corridor, an 8-AP TCP drive and a
  soak with churn and faults, the medium calls a frame ``decodable`` at
  exactly the receivers the reference finds audible, in the same order,
  computes a snapshot for exactly those of them that will read it (or
  are not fixed↔fixed: "heard, not read" stops there), and skips only
  radios the reference leaves inaudible;
* the power bound the radius is solved from is never below the exact
  mean received power, over random geometry (hypothesis);
* the caches behind it die with the geometry they were computed from;
* receivers examined per frame and links per AP do not grow with the
  corridor, and no AP↔AP link is ever built (counts, not times: safe on
  a noisy CI box);
* "heard, not read" changes nothing but the work: the same three runs
  with ``wants_snapshot`` forced True (a snapshot for every audible
  radio, the behaviour it replaced) give the same flow series, switch
  history, soak fingerprint and metrics from strictly more snapshots.
"""

from __future__ import annotations

import math
from typing import List, Tuple

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.channel import ChannelMap, OmniAntenna, ParabolicAntenna, RadioPort
from repro.channel.antenna import Antenna
from repro.channel.link import NOISE_FLOOR_DBM, PATHLOSS
from repro.mac import WifiDevice, WirelessMedium
from repro.mac.frames import BeaconFrame
from repro.mobility import Position, Road, VehicleTrack
from repro.scenarios.presets import shard_corridor_config
from repro.scenarios.testbed import Testbed, TestbedConfig
from repro.sim import RngRegistry, Simulator
from repro.soak import SloBudgets, SoakConfig, SoakHarness, WorkloadConfig

FLOOR_DBM = NOISE_FLOOR_DBM - 10


# ----------------------------------------------------------------------
# the reference: the O(all radios) walk, link-free and side-effect-free
# ----------------------------------------------------------------------


def reference_power_dbm(channel: ChannelMap, tx_id: str, rx_id: str, t: int) -> float:
    """``Link.mean_rx_power_dbm`` as the parent commit wrote it: the
    pair in id order, the terms in this order."""
    first, second = sorted((tx_id, rx_id))
    ap, client = channel.port(first), channel.port(second)
    ap_pos, client_pos = ap.position_fn(t), client.position_fn(t)
    mean_snr_db = (
        channel.port(tx_id).tx_power_dbm
        + ap.antenna.gain_dbi(client_pos)
        + client.antenna.gain_dbi(ap_pos)
        - PATHLOSS.loss_db(ap_pos.distance_to(client_pos))
        - NOISE_FLOOR_DBM
    )
    return mean_snr_db + NOISE_FLOOR_DBM


def reference_receivers(medium: WirelessMedium, tx) -> List[Tuple[str, bool, bool]]:
    """``(node_id, audible, gets a snapshot)`` for every radio the full
    walk would call ``on_air_frame`` on, in registration order.  A
    snapshot is owed to an audible radio unless it will not read one
    and neither end of the link moves."""
    on_air = {
        other.sender
        for other in medium._transmissions
        if min(other.end_us, tx.end_us) > max(other.start_us, tx.start_us)
    }
    sender_role = medium.role_of(tx.sender)
    port = medium._channel.port
    out = []
    for device in medium.devices():
        if device.node_id == tx.sender:
            continue
        if getattr(device, "channel", 11) != tx.channel:
            continue
        if not device.cares_about(tx.frame, sender_role):
            continue
        audible = device.node_id not in on_air and (
            reference_power_dbm(
                medium._channel, tx.sender, device.node_id, tx.start_us
            )
            >= FLOOR_DBM
        )
        unread = (
            not device.wants_snapshot(tx.frame)
            and port(tx.sender).fixed_position is not None
            and port(device.node_id).fixed_position is not None
        )
        out.append((device.node_id, audible, audible and not unread))
    return out


class Tally:
    completions = 0
    #: Completions where the index left at least one radio out.
    pruned = 0
    snapshots = 0
    #: Audible radios that were told so without a snapshot.
    unread = 0


@pytest.fixture
def checked(monkeypatch) -> Tally:
    """Hold every frame completion of every medium built during the
    test to the reference walk."""
    tally = Tally()
    seen: List[Tuple[str, bool, bool]] = []
    real_complete = WirelessMedium._complete
    real_on_air = WifiDevice.on_air_frame

    def on_air_frame(self, frame, snr_db, decodable):
        seen.append((self.node_id, decodable, snr_db is not None))
        real_on_air(self, frame, snr_db, decodable)

    def complete(self, tx):
        expected = reference_receivers(self, tx)
        del seen[:]
        real_complete(self, tx)
        got = list(seen)
        assert [r for r in got if r[1]] == [r for r in expected if r[1]]
        # What the medium visited is the reference's list with some
        # inaudible radios left out: same ids, same order.
        remaining = iter(expected)
        assert all(entry in remaining for entry in got), (got, expected)
        tally.completions += 1
        tally.pruned += len(got) < len(expected)
        tally.snapshots += sum(snap for _id, _heard, snap in got)
        tally.unread += sum(heard and not snap for _id, heard, snap in got)

    monkeypatch.setattr(WifiDevice, "on_air_frame", on_air_frame)
    monkeypatch.setattr(WirelessMedium, "_complete", complete)
    return tally


def corridor_config(num_aps: int, num_shards: int, cars: int, seed: int) -> TestbedConfig:
    """The ledger's ``corridor100_fleet`` geometry at any size: cars
    150 m apart at 35 mph, each just short of a shard boundary."""
    config = shard_corridor_config(num_aps=num_aps, num_shards=num_shards, seed=seed)
    road = Road(length_m=config.road_length_m())
    shard_m = num_aps // num_shards * config.ap_spacing_m
    boundary_x = config.first_ap_x_m + shard_m - config.ap_spacing_m / 2
    config.client_tracks = [
        VehicleTrack(
            road, start_x=boundary_x + 2 * i * shard_m - (0.5 + i), speed_mph=35.0
        )
        for i in range(cars)
    ]
    return config


def behaviour(snapshot) -> dict:
    """A metrics snapshot minus the cache counters, which describe the
    PHY memos and not the run (``tests/test_scenarios.py`` likewise)."""
    return {k: v for k, v in snapshot.items() if not k.startswith("phy_memo{")}


def drive(config: TestbedConfig, sim_s: float, tcp: bool = False):
    """One downlink flow per client.  Returns the testbed and what the
    run did: flow series, switch history, metrics."""
    tb = Testbed(config)
    flows = [
        tb.add_downlink_tcp_flow(index)
        if tcp
        else tb.add_downlink_udp_flow(index, rate_bps=3e6)
        for index in range(len(tb.clients))
    ]
    for source, _sink in flows:
        source.start()
    tb.run_seconds(sim_s)
    now = tb.sim.now
    series = [
        sink.goodput_series_mbps(now) if tcp else sink.throughput_series_mbps(now)
        for _source, sink in flows
    ]
    if tb.shard_manager is not None:
        controllers = [shard.controller for shard in tb.shard_manager.shards]
    else:
        controllers = [tb.controller]
    history = [
        (r.client, r.from_ap, r.to_ap, r.started_us, r.completed_us, r.outcome)
        for controller in controllers
        for r in controller.coordinator.history
    ]
    return tb, (series, history, behaviour(tb.obs.metrics.snapshot()))


def corridor_fleet():
    return drive(corridor_config(100, 10, cars=4, seed=100), 0.12)[1]


def tcp_drive_8_aps():
    config = TestbedConfig(seed=5, scheme="wgtt", client_speeds_mph=[25.0])
    return drive(config, 0.8, tcp=True)[1]


def soak_with_churn_and_faults():
    result = SoakHarness(
        SoakConfig(
            seed=3,
            duration_s=2.5,
            invariants_enabled=True,
            fault_intensity=4.0,
            adversary_intensity=4.0,
            admission_enabled=True,
            sample_interval_s=0.5,
            budgets=SloBudgets(min_delivery_ratio=0.0),
            workload=WorkloadConfig(
                arrival_rate_per_s=6.0,
                mean_dwell_s=0.6,
                min_dwell_us=400_000,
                max_concurrent=6,
                rate_min_bps=0.5e6,
                rate_max_bps=2e6,
            ),
        )
    ).run()
    assert result.churn_stats["departures"] > 0
    return result.fingerprint, result.churn_stats, behaviour(result.final_metrics)


class TestExactness:
    def test_corridor_fleet(self, checked):
        corridor_fleet()
        assert checked.completions > 200
        assert checked.snapshots > 500
        # Every beacon and client frame leaves most of the road out
        # (a data frame is for one client: nothing to leave out).
        assert checked.pruned > 100
        # APs hearing each other's beacons: about as many again.
        assert checked.unread > 500

    def test_tcp_drive_8_aps(self, checked):
        tcp_drive_8_aps()
        assert checked.completions > 500
        assert checked.snapshots > 1000

    def test_soak_with_churn_and_faults(self, checked):
        soak_with_churn_and_faults()
        assert checked.completions > 500


# ----------------------------------------------------------------------
# heard, not read
# ----------------------------------------------------------------------


class TestHeardNotRead:
    """An AP that would drop a neighbour's beacon unread gets no
    snapshot of it.  The behaviour replaced -- a snapshot for every
    audible radio -- is the reference: ``wants_snapshot`` always True."""

    @pytest.mark.parametrize(
        "scenario", [corridor_fleet, tcp_drive_8_aps, soak_with_churn_and_faults]
    )
    def test_same_run_as_a_snapshot_for_every_audible_radio(
        self, scenario, monkeypatch
    ):
        snapshots = [0]
        real_on_air = WifiDevice.on_air_frame

        def on_air_frame(self, frame, snr_db, decodable):
            snapshots[0] += snr_db is not None
            real_on_air(self, frame, snr_db, decodable)

        monkeypatch.setattr(WifiDevice, "on_air_frame", on_air_frame)
        shipped, shipped_snapshots = scenario(), snapshots[0]
        snapshots[0] = 0
        monkeypatch.setattr(WifiDevice, "wants_snapshot", lambda self, frame: True)
        assert scenario() == shipped
        assert 0 < shipped_snapshots < snapshots[0]

    def test_a_radio_that_listens_for_beacons_gets_them(self):
        """The baseline scheme's client roams on beacon RSSI; an AP
        handed a handler reads its neighbours' beacons too, while the
        APs beside it still build no AP-to-AP link."""
        tb = Testbed(TestbedConfig(seed=2, scheme="baseline", client_speeds_mph=[15.0]))
        heard: List[Tuple[str, float]] = []
        listener = tb.baseline_aps["ap3"].device
        listener.on_beacon = lambda frame, rssi: heard.append((frame.ta, rssi))
        tb.run_seconds(0.6)
        agent = tb.clients[0].agent
        assert agent.association_log
        assert -95.0 < agent.rssi_of(agent.current_ap) < -20.0
        assert {"ap2", "ap4"} <= {ta for ta, _rssi in heard}
        assert all(-95.0 < rssi < -20.0 for _ta, rssi in heard)
        links = {
            ap_id: {
                link.ap.node_id if link.client.node_id == ap_id else link.client.node_id
                for link in tb.channel.links_for_client(ap_id)
            }
            for ap_id in tb.ap_ids
        }
        assert links["ap3"] >= {"ap2", "ap4", "client0"}
        assert links["ap0"] <= {"ap3", "client0"}


# ----------------------------------------------------------------------
# the bound
# ----------------------------------------------------------------------

coord = st.floats(min_value=-30.0, max_value=30.0, allow_nan=False)


@st.composite
def antennas(draw, at: Position):
    if draw(st.booleans()):
        return OmniAntenna(peak_gain_dbi=draw(st.floats(0.0, 6.0)))
    # Aimed across the road (same x as the mount), or anywhere at all.
    aim_x = at.x if draw(st.booleans()) else at.x + draw(coord)
    return ParabolicAntenna(
        mount=at,
        boresight=Position(aim_x, draw(coord), draw(coord)),
        peak_gain_dbi=draw(st.floats(6.0, 24.0)),
        beamwidth_deg=draw(st.floats(5.0, 120.0)),
        side_lobe_suppression_db=draw(st.floats(3.0, 40.0)),
    )


@st.composite
def radio_pairs(draw):
    a = Position(draw(st.floats(-500.0, 500.0)), draw(coord), draw(coord))
    b = Position(draw(st.floats(-500.0, 500.0)), draw(coord), draw(coord))
    return (
        (a, draw(antennas(a)), draw(st.floats(0.0, 30.0))),
        (b, draw(antennas(b)), draw(st.floats(0.0, 30.0))),
    )


class TestPowerBound:
    @given(radio_pairs(), st.floats(0.0, 1.0), st.floats(1.0, 2.0))
    @settings(max_examples=300, deadline=None)
    def test_bound_dominates_exact_power(self, pair, dx_share, cross_slack):
        (a_pos, a_ant, a_dbm), (b_pos, b_ant, b_dbm) = pair
        cmap = ChannelMap(Simulator(), RngRegistry(1))
        cmap.register_port(RadioPort("a", a_ant, a_dbm, lambda t: a_pos))
        cmap.register_port(RadioPort("b", b_ant, b_dbm, lambda t: b_pos))
        # Any stated section that contains the pair: no more than the
        # true offset along the road, no less than the true one across.
        min_dx = dx_share * abs(a_pos.x - b_pos.x)
        max_cross = cross_slack * math.hypot(a_pos.y - b_pos.y, a_pos.z - b_pos.z)
        for tx_id, rx_id, rx_ant in (("a", "b", b_ant), ("b", "a", a_ant)):
            bound = cmap.mean_rx_power_bound_dbm(tx_id, rx_ant, min_dx, max_cross)
            exact = cmap.mean_rx_power_dbm(tx_id, rx_id, 0)
            assert bound >= exact
            assert exact == reference_power_dbm(cmap, tx_id, rx_id, 0)
            assert exact == cmap.link(tx_id, rx_id).mean_rx_power_dbm(0, tx_id=tx_id)
            # Non-increasing in the along-road offset.
            assert bound >= cmap.mean_rx_power_bound_dbm(
                tx_id, rx_ant, min_dx + 1.0, max_cross
            )

    def test_unboundable_antennas_say_so(self):
        mount = Position(0.0, -12.0, 10.0)
        skewed = ParabolicAntenna(mount=mount, boresight=Position(3.0, 0.0, 1.5))
        for antenna in (Antenna(), skewed):
            assert antenna.gain_bound_dbi(50.0, 20.0) == math.inf
            assert antenna.bound_key() is None
        square = ParabolicAntenna(mount=mount, boresight=Position(0.0, 0.0, 1.5))
        assert square.bound_key() is not None
        # Side lobes from ~10 m out, whatever the section.
        assert square.gain_bound_dbi(12.0, 18.0) == pytest.approx(
            square.peak_gain_dbi - square.side_lobe_suppression_db
        )

    def test_default_radii(self):
        """~49 m AP to AP and ~54 m client to AP at the testbed's
        defaults: six or seven picocells either way."""
        tb = Testbed(TestbedConfig(seed=1, scheme="wgtt", num_aps=40))
        tb.run_seconds(0.01)  # first completion builds the index
        ap = tb.channel.port("ap20")
        car = tb.channel.port("client0")
        ap_radius = tb.medium._sound_radius_m("ap20", ap.position_at(0))
        car_radius = tb.medium._sound_radius_m("client0", car.position_at(0))
        assert 45.0 <= ap_radius <= 52.0
        assert 50.0 <= car_radius <= 58.0


# ----------------------------------------------------------------------
# cache lifetime
# ----------------------------------------------------------------------


def ap_port(node_id: str, x: float, **antenna_kw) -> RadioPort:
    mount = Position(x, -12.0, 10.0)
    antenna = ParabolicAntenna(
        mount=mount, boresight=Position(x, 0.0, 1.5), **antenna_kw
    )
    return RadioPort(node_id, antenna, 20.0, lambda t: mount, fixed_position=mount)


class Ear(WifiDevice):
    """An AP radio that records which beacons reach it."""

    def __init__(self, sim, medium, rng, node_id):
        super().__init__(sim, medium, rng, node_id, role="ap")
        self.heard: List[str] = []

    def on_air_frame(self, frame, snr_db, decodable):
        if decodable:
            self.heard.append(frame.tx_device)


def beacon(medium: WirelessMedium, sim: Simulator, sender: str) -> None:
    medium.transmit(BeaconFrame(tx_device=sender, ta=sender, ra="*"))
    sim.run()


class TestCacheLifetime:
    def world(self, *xs: float):
        sim = Simulator()
        rng = RngRegistry(4)
        cmap = ChannelMap(sim, rng)
        medium = WirelessMedium(sim, cmap)
        ears = {}
        for i, x in enumerate(xs):
            cmap.register_port(ap_port(f"ap{i}", x))
            ears[f"ap{i}"] = Ear(sim, medium, rng, f"ap{i}")
        return sim, rng, cmap, medium, ears

    def test_unregister_then_reuse_the_id_elsewhere(self):
        sim, rng, cmap, medium, ears = self.world(0.0, 10.0, 400.0)
        beacon(medium, sim, "ap0")
        assert ears["ap1"].heard == ["ap0"] and ears["ap2"].heard == []
        far_power = cmap.mean_rx_power_dbm("ap0", "ap2", sim.now)
        # ap2 leaves; a new radio takes its id, next door to ap0.
        medium.unregister("ap2")
        cmap.forget_port("ap2")
        cmap.register_port(ap_port("ap2", 20.0))
        ears["ap2"] = Ear(sim, medium, rng, "ap2")
        assert cmap.mean_rx_power_dbm("ap0", "ap2", sim.now) > far_power + 20
        beacon(medium, sim, "ap0")
        assert ears["ap2"].heard == ["ap0"]

    def test_forget_port_alone_reindexes(self):
        """The channel map moves a port under a radio that stays
        registered: the medium must notice without being told."""
        sim, rng, cmap, medium, ears = self.world(0.0, 10.0, 400.0)
        beacon(medium, sim, "ap0")
        assert ears["ap2"].heard == []
        cmap.forget_port("ap2")
        cmap.register_port(ap_port("ap2", 20.0))
        beacon(medium, sim, "ap0")
        assert ears["ap2"].heard == ["ap0"]

    def test_invalidate_geometry_drops_the_power_memo_and_the_index(self):
        sim, rng, cmap, medium, ears = self.world(0.0, 10.0, 400.0)
        beacon(medium, sim, "ap0")
        far_power = cmap.mean_rx_power_dbm("ap0", "ap2", sim.now)
        # An in-place edit (what fig10 does to its probe client): the
        # far mount is carried next door at a fixed simulation time.
        port = cmap.port("ap2")
        near = Position(20.0, -12.0, 10.0)
        port.position_fn = lambda t: near
        port.fixed_position = near
        port.antenna = ap_port("ap2", 20.0).antenna
        assert cmap.mean_rx_power_dbm("ap0", "ap2", sim.now) == far_power  # stale
        cmap.invalidate_geometry()
        assert cmap.mean_rx_power_dbm("ap0", "ap2", sim.now) > far_power + 20
        beacon(medium, sim, "ap0")
        assert ears["ap2"].heard == ["ap0"]

    def test_unboundable_receiver_is_never_pruned(self):
        """A skewed dish cannot bound its gain, so it stays a candidate
        of every frame: here it looks straight down the road at a
        sender the index would have left out at 400 m."""
        sim, rng, cmap, medium, ears = self.world(0.0, 10.0)
        mount = Position(400.0, -12.0, 10.0)
        dish = ParabolicAntenna(
            mount=mount, boresight=Position(0.0, -12.0, 10.0), peak_gain_dbi=34.0
        )
        cmap.register_port(
            RadioPort("ap2", dish, 20.0, lambda t: mount, fixed_position=mount)
        )
        ears["ap2"] = Ear(sim, medium, rng, "ap2")
        beacon(medium, sim, "ap0")
        assert reference_power_dbm(cmap, "ap0", "ap2", 0) >= FLOOR_DBM
        assert ears["ap2"].heard == ["ap0"]
        assert "ap2" in medium._roaming


# ----------------------------------------------------------------------
# flat in AP count
# ----------------------------------------------------------------------


class TestFlatInApCount:
    def measure(self, num_aps: int) -> Tuple[float, int]:
        tb, _ = drive(corridor_config(num_aps, num_aps // 10, cars=2, seed=7), 0.25)
        links = [tb.channel.links_for_client(ap_id) for ap_id in tb.ap_ids]
        # An AP's links are to cars: beacons between APs are heard, not
        # read, so no AP<->AP Link (taps, RNG stream) is ever built.
        cars = {client.client_id for client in tb.clients}
        assert all(
            {link.ap.node_id, link.client.node_id} & cars
            for per_ap in links
            for link in per_ap
        )
        assert max(map(len, links)) <= len(cars)
        return (
            tb.medium.receivers_examined / tb.medium.frames_sent,
            sum(map(len, links)),
        )

    def test_50_vs_400_aps(self):
        examined_50, links_50 = self.measure(50)
        examined_400, links_400 = self.measure(400)
        assert 5.0 < examined_50 < 20.0
        assert max(examined_50, examined_400) <= 1.15 * min(examined_50, examined_400)
        # Links in the whole corridor: cars x the APs in earshot of one.
        assert 10 < links_50 < 60
        assert max(links_50, links_400) <= 1.15 * min(links_50, links_400)
