"""Tests for path loss, antennas, fading, and the link model."""

import math

import numpy as np
import pytest

from repro.channel import (
    NOISE_FLOOR_DBM,
    NUM_SUBCARRIERS,
    ChannelMap,
    LogDistancePathLoss,
    OmniAntenna,
    ParabolicAntenna,
    RadioPort,
    TappedRayleighChannel,
    coherence_time_us,
    doppler_hz,
    free_space_path_loss_db,
)
from repro.channel.csi import CsiReport
from repro.mobility import Position, Road, VehicleTrack
from repro.sim import RngRegistry, Simulator
from repro.sim.engine import MS


# ----------------------------------------------------------------------
# path loss
# ----------------------------------------------------------------------

def test_fspl_increases_with_distance():
    f = 2.462e9
    assert free_space_path_loss_db(20, f) > free_space_path_loss_db(10, f)


def test_fspl_6db_per_doubling():
    f = 2.462e9
    delta = free_space_path_loss_db(20, f) - free_space_path_loss_db(10, f)
    assert delta == pytest.approx(6.02, abs=0.01)


def test_log_distance_exponent():
    model = LogDistancePathLoss(exponent=3.0, excess_loss_db=0.0)
    delta = model.loss_db(100.0) - model.loss_db(10.0)
    assert delta == pytest.approx(30.0, abs=0.01)


def test_distance_floor_at_reference():
    model = LogDistancePathLoss()
    assert model.loss_db(0.001) == model.loss_db(model.reference_distance_m)


def test_wavelength_is_12cm_at_channel_11():
    model = LogDistancePathLoss()
    assert model.wavelength_m == pytest.approx(0.1218, abs=0.001)


# ----------------------------------------------------------------------
# antennas
# ----------------------------------------------------------------------

def make_roadside_antenna():
    mount = Position(15.0, -12.0, 10.0)
    return ParabolicAntenna(mount=mount, boresight=Position(15.0, 0.0, 1.5))


def test_omni_gain_uniform():
    ant = OmniAntenna(peak_gain_dbi=2.0)
    assert ant.gain_dbi(Position(1, 2, 3)) == 2.0
    assert ant.gain_dbi(Position(-9, 0, 0)) == 2.0


def test_parabolic_peak_on_boresight():
    ant = make_roadside_antenna()
    assert ant.gain_dbi(Position(15.0, 0.0, 1.5)) == pytest.approx(14.0)


def test_parabolic_3db_at_half_beamwidth():
    ant = make_roadside_antenna()
    # Rotate 10.5 deg off boresight within the vertical plane.
    distance = ant.mount.distance_to(ant.boresight)
    offset = distance * math.tan(math.radians(10.5))
    target = Position(15.0 + offset, 0.0, 1.5)
    # Slight geometric error from the flat-offset construction.
    assert ant.gain_dbi(target) == pytest.approx(11.0, abs=0.4)


def test_parabolic_side_lobe_floor():
    ant = make_roadside_antenna()
    way_off = Position(90.0, 0.0, 1.5)
    assert ant.gain_dbi(way_off) == pytest.approx(
        14.0 - ant.side_lobe_suppression_db
    )


def test_parabolic_gain_decreases_off_axis():
    ant = make_roadside_antenna()
    gains = [ant.gain_dbi(Position(15.0 + dx, 0.0, 1.5)) for dx in (0, 1, 2, 4)]
    assert gains == sorted(gains, reverse=True)


# ----------------------------------------------------------------------
# fading
# ----------------------------------------------------------------------

def test_doppler_and_coherence():
    wavelength = 0.122
    fd = doppler_hz(6.7, wavelength)  # 15 mph
    assert fd == pytest.approx(54.9, rel=0.01)
    tc = coherence_time_us(fd)
    assert 2_000 < tc < 6_000  # paper: 2-3 ms at vehicular speed


def test_doppler_floor_for_static():
    assert doppler_hz(0.0, 0.122) == 2.0


def test_fading_unit_mean_power():
    rng = RngRegistry(3)
    powers = []
    for i in range(200):
        ch = TappedRayleighChannel(rng.stream(f"f{i}"))
        powers.append(np.mean(ch.subcarrier_power()))
    assert np.mean(powers) == pytest.approx(1.0, abs=0.15)


def test_fading_is_frequency_selective():
    ch = TappedRayleighChannel(RngRegistry(3).stream("x"))
    power_db = 10 * np.log10(ch.subcarrier_power())
    assert power_db.max() - power_db.min() > 3.0
    assert len(power_db) == NUM_SUBCARRIERS


def test_fading_decorrelates_over_coherence_time():
    rng = RngRegistry(4)
    corr_short, corr_long = [], []
    for i in range(100):
        ch = TappedRayleighChannel(rng.stream(f"l{i}"))
        ch.evolve_to(0, coherence_us=2_500)
        before = ch.subcarrier_gains().copy()
        ch.evolve_to(100, coherence_us=2_500)  # 0.1 ms later
        corr_short.append(abs(np.vdot(before, ch.subcarrier_gains())))
        ch.evolve_to(50_000, coherence_us=2_500)  # 50 ms later
        corr_long.append(abs(np.vdot(before, ch.subcarrier_gains())))
    assert np.mean(corr_short) > 2 * np.mean(corr_long)


def test_fading_evolution_ignores_time_reversal():
    ch = TappedRayleighChannel(RngRegistry(5).stream("x"))
    ch.evolve_to(1000, coherence_us=2_500)
    snapshot = ch.subcarrier_gains().copy()
    ch.evolve_to(500, coherence_us=2_500)  # earlier time: no-op
    assert np.array_equal(snapshot, ch.subcarrier_gains())


# ----------------------------------------------------------------------
# link + channel map
# ----------------------------------------------------------------------

def build_link(seed=1, speed_mph=15.0):
    sim = Simulator()
    rng = RngRegistry(seed)
    road = Road()
    cmap = ChannelMap(sim, rng)
    mount = Position(15.0, -12.0, 10.0)
    antenna = ParabolicAntenna(mount=mount, boresight=Position(15.0, 0.0, 1.5))
    cmap.register_port(RadioPort("ap1", antenna, 20.0, lambda t: mount))
    track = VehicleTrack(road, start_x=0.0, speed_mph=speed_mph)
    cmap.register_port(
        RadioPort(
            "c1", OmniAntenna(), 15.0, track.position_at, lambda: track.speed_mps
        )
    )
    return sim, cmap, track


def test_link_snr_peaks_at_boresight():
    _, cmap, track = build_link()
    link = cmap.link("ap1", "c1")
    t_peak = track.time_to_reach_x(15.0)
    snr_far = link.mean_snr_db(0)
    snr_peak = link.mean_snr_db(t_peak)
    assert snr_peak > snr_far + 15.0
    assert 20.0 < snr_peak < 35.0  # calibrated operating point


def test_link_downlink_uplink_power_asymmetry():
    _, cmap, track = build_link()
    link = cmap.link("ap1", "c1")
    t = track.time_to_reach_x(15.0)
    dl = link.mean_snr_db(t, tx_id="ap1")
    ul = link.mean_snr_db(t, tx_id="c1")
    assert dl - ul == pytest.approx(5.0)  # 20 dBm AP vs 15 dBm client


def test_link_csi_has_56_subcarriers():
    _, cmap, track = build_link()
    link = cmap.link("ap1", "c1")
    snr = link.subcarrier_snr_db(100 * MS)
    assert snr.shape == (NUM_SUBCARRIERS,)


def test_link_subcarrier_snr_cached_per_timestamp():
    _, cmap, _ = build_link()
    link = cmap.link("ap1", "c1")
    a = link.subcarrier_snr_db(5 * MS)
    b = link.subcarrier_snr_db(5 * MS)
    assert np.array_equal(a, b)


def test_link_reciprocity_same_fading_both_directions():
    # Uplink CSI predicts downlink: fading term must be shared.
    _, cmap, track = build_link()
    link = cmap.link("ap1", "c1")
    t = track.time_to_reach_x(15.0)
    dl = link.subcarrier_snr_db(t, tx_id="ap1")
    ul = link.subcarrier_snr_db(t, tx_id="c1")
    assert np.allclose(dl - ul, dl[0] - ul[0])  # constant power offset


def test_rssi_includes_fading():
    _, cmap, _ = build_link()
    link = cmap.link("ap1", "c1")
    values = {link.rssi_dbm(t * 10 * MS) for t in range(10)}
    assert len(values) > 1  # varies over time
    assert all(v < 0 for v in values)
    assert all(v > NOISE_FLOOR_DBM - 40 for v in values)


def test_channel_map_rejects_duplicate_ids():
    sim, rng = Simulator(), RngRegistry(1)
    cmap = ChannelMap(sim, rng)
    port = RadioPort("x", OmniAntenna(), 10.0, lambda t: Position(0, 0, 0))
    cmap.register_port(port)
    with pytest.raises(ValueError):
        cmap.register_port(port)


def test_channel_map_link_is_cached():
    _, cmap, _ = build_link()
    assert cmap.link("ap1", "c1") is cmap.link("ap1", "c1")


def test_links_for_client():
    _, cmap, _ = build_link()
    cmap.link("ap1", "c1")
    assert len(cmap.links_for_client("c1")) == 1
    assert cmap.links_for_client("other") == []


def test_best_ap_flips_at_millisecond_scale():
    """The vehicular picocell regime (paper Fig 2): with two overlapping
    APs, the instantaneously better AP changes on ms timescales."""
    sim = Simulator()
    rng = RngRegistry(11)
    road = Road()
    cmap = ChannelMap(sim, rng)
    for i, x in enumerate((15.0, 22.5)):
        mount = Position(x, -12.0, 10.0)
        ant = ParabolicAntenna(mount=mount, boresight=Position(x, 0.0, 1.5))
        cmap.register_port(
            RadioPort(f"ap{i}", ant, 20.0, lambda t, m=mount: m)
        )
    track = VehicleTrack(road, start_x=0.0, speed_mph=25.0)
    cmap.register_port(
        RadioPort(
            "c1", OmniAntenna(), 15.0, track.position_at, lambda: track.speed_mps
        )
    )
    # Sample in the overlap region every millisecond.
    t0 = track.time_to_reach_x(18.5)
    from repro.phy import effective_snr_db

    best = []
    for k in range(120):
        t = t0 + k * MS
        e0 = effective_snr_db(cmap.link("ap0", "c1").subcarrier_snr_db(t))
        e1 = effective_snr_db(cmap.link("ap1", "c1").subcarrier_snr_db(t))
        best.append(0 if e0 >= e1 else 1)
    flips = sum(1 for a, b in zip(best, best[1:]) if a != b)
    assert flips >= 3


def test_csi_report_wire_size_and_esnr():
    report = CsiReport(
        time_us=0,
        ap_id="ap1",
        client_id="c1",
        subcarrier_snr_db=np.full(56, 18.0),
        rssi_dbm=-60.0,
    )
    assert report.wire_size_bytes() == 136
    assert report.esnr_db == pytest.approx(18.0, abs=0.1)
    # cached value reused
    assert report.esnr_db == report.esnr_db
