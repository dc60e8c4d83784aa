"""Tests for road geometry and vehicle tracks."""

import math

import pytest

from repro.mobility import MPH_TO_MPS, Position, Road, VehicleTrack, mph
from repro.scenarios.presets import following_config, opposing_config, parallel_config
from repro.sim.engine import SECOND


def test_mph_conversion():
    assert mph(25.0) == pytest.approx(11.176)
    assert MPH_TO_MPS == pytest.approx(0.44704)


def test_position_distance():
    a = Position(0, 0, 0)
    b = Position(3, 4, 0)
    assert a.distance_to(b) == pytest.approx(5.0)
    c = Position(3, 4, 12)
    assert a.distance_to(c) == pytest.approx(13.0)


def test_position_bearing():
    a = Position(0, 0, 0)
    azimuth, elevation = a.bearing_to(Position(1, 1, 0))
    assert azimuth == pytest.approx(math.pi / 4)
    assert elevation == pytest.approx(0.0)
    _, elev_up = a.bearing_to(Position(1, 0, 1))
    assert elev_up == pytest.approx(math.pi / 4)


def test_road_lane_selection():
    road = Road(near_lane_y=0.0, far_lane_y=3.5)
    assert road.lane_y(+1) == 0.0
    assert road.lane_y(-1) == 3.5


def test_road_contains_x():
    road = Road(length_m=60.0)
    assert road.contains_x(0.0)
    assert road.contains_x(60.0)
    assert not road.contains_x(-0.1)
    assert not road.contains_x(60.1)


class TestVehicleTrack:
    def test_position_advances_linearly(self):
        road = Road()
        track = VehicleTrack(road, start_x=0.0, speed_mph=15.0)
        one_second = track.position_at(SECOND)
        assert one_second.x == pytest.approx(15.0 * MPH_TO_MPS)
        assert one_second.y == road.near_lane_y
        assert one_second.z == track.antenna_height_m

    def test_static_client_never_moves(self):
        track = VehicleTrack(Road(), start_x=10.0, speed_mph=0.0)
        assert track.position_at(0).x == 10.0
        assert track.position_at(10 * SECOND).x == 10.0

    def test_reverse_direction(self):
        road = Road()
        track = VehicleTrack(road, start_x=50.0, speed_mph=10.0, direction=-1)
        later = track.position_at(SECOND)
        assert later.x < 50.0
        assert later.y == road.far_lane_y

    def test_invalid_direction_rejected(self):
        with pytest.raises(ValueError):
            VehicleTrack(Road(), start_x=0.0, speed_mph=5.0, direction=0)

    def test_negative_speed_rejected(self):
        with pytest.raises(ValueError):
            VehicleTrack(Road(), start_x=0.0, speed_mph=-5.0)

    def test_time_to_reach_x(self):
        track = VehicleTrack(Road(), start_x=0.0, speed_mph=15.0)
        t = track.time_to_reach_x(15.0 * MPH_TO_MPS)
        assert t == pytest.approx(SECOND, rel=1e-6)

    def test_time_to_reach_x_behind_rejected(self):
        track = VehicleTrack(Road(), start_x=10.0, speed_mph=15.0)
        with pytest.raises(ValueError):
            track.time_to_reach_x(5.0)

    def test_transit_duration_scales_inversely_with_speed(self):
        road = Road(length_m=60.0)
        slow = VehicleTrack(road, start_x=0.0, speed_mph=5.0)
        fast = VehicleTrack(road, start_x=0.0, speed_mph=25.0)
        assert slow.transit_duration_us() == pytest.approx(
            5 * fast.transit_duration_us(), rel=1e-3
        )

    def test_paper_dwell_time_at_25_mph(self):
        # Paper Fig 3: at 25 mph a car spends ~460 ms in each ~5 m cell.
        road = Road(length_m=5.2)
        track = VehicleTrack(road, start_x=0.0, speed_mph=25.0)
        dwell_ms = track.transit_duration_us() / 1000.0
        assert 430 <= dwell_ms <= 490


def test_following_tracks_spacing():
    config = following_config(speed_mph=15.0, count=3, spacing_m=3.0)
    tracks = config.client_tracks
    start = config.client_start_x_m
    xs = [t.position_at(0).x for t in tracks]
    assert xs == [start, start - 3.0, start - 6.0]
    later = [t.position_at(SECOND).x for t in tracks]
    assert later[0] - later[1] == pytest.approx(3.0)


def test_parallel_tracks_stay_abreast_in_different_lanes():
    a, b = parallel_config(speed_mph=15.0).client_tracks
    pa, pb = a.position_at(SECOND), b.position_at(SECOND)
    assert pa.x == pytest.approx(pb.x)
    assert pa.y != pb.y


def test_opposing_tracks_close_on_each_other():
    a, b = opposing_config(speed_mph=15.0).client_tracks
    gap_start = abs(a.position_at(0).x - b.position_at(0).x)
    gap_later = abs(a.position_at(SECOND).x - b.position_at(SECOND).x)
    assert gap_later < gap_start
