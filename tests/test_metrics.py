"""Tests for the metrics layer: stats helpers, accuracy, capacity."""

import math

import pytest

from repro.metrics.capacity import selector_capacity_loss_mbps
from repro.metrics.stats import cdf_points, percentile, summarize


class TestStats:
    def test_cdf_points(self):
        points = cdf_points([3.0, 1.0, 2.0])
        assert points == [(1.0, 1 / 3), (2.0, 2 / 3), (3.0, 1.0)]

    def test_cdf_empty(self):
        assert cdf_points([]) == []

    def test_percentile(self):
        values = list(range(101))
        assert percentile(values, 50) == pytest.approx(50)
        assert percentile(values, 90) == pytest.approx(90)
        with pytest.raises(ValueError):
            percentile([], 50)

    def test_mean_std_median(self):
        assert summarize([1, 2, 3])["mean"] == pytest.approx(2.0)
        assert summarize([2, 4])["std"] == pytest.approx(math.sqrt(2))
        assert summarize([5])["std"] == 0.0
        assert summarize([5, 1, 9])["median"] == 5

    def test_summarize(self):
        summary = summarize([1.0, 2.0, 3.0])
        assert summary["n"] == 3
        assert summary["mean"] == pytest.approx(2.0)
        assert summary["min"] == 1.0 and summary["max"] == 3.0
        assert summarize([])["n"] == 0


class TestSelectorCapacityLoss:
    def make_traces(self, flip_period_us=500_000, duration_us=4_000_000):
        """Two APs alternating which one is good."""
        esnr, rate = {"ap1": [], "ap2": []}, {"ap1": [], "ap2": []}
        for t in range(0, duration_us, 2_000):
            phase = (t // flip_period_us) % 2
            good, bad = ("ap1", "ap2") if phase == 0 else ("ap2", "ap1")
            esnr[good].append((t, 25.0))
            esnr[bad].append((t, 5.0))
            rate[good].append((t, 60e6))
            rate[bad].append((t, 5e6))
        return esnr, rate

    def test_small_window_tracks_flips(self):
        esnr, rate = self.make_traces()
        loss = selector_capacity_loss_mbps(esnr, rate, window_us=10_000)
        assert loss < 2.0  # near-zero: always on the good AP

    def test_huge_window_lags_flips(self):
        esnr, rate = self.make_traces()
        small = selector_capacity_loss_mbps(esnr, rate, window_us=10_000)
        huge = selector_capacity_loss_mbps(esnr, rate, window_us=900_000)
        assert huge > small + 3.0  # lags each flip by ~half a window

    def test_empty_trace(self):
        assert selector_capacity_loss_mbps({}, {}, window_us=10_000) == 0.0


class TestMetersOnTestbed:
    def test_accuracy_meter_static_served_by_best(self):
        from repro.metrics.accuracy import SwitchingAccuracyMeter
        from repro.scenarios.testbed import Testbed, TestbedConfig

        testbed = Testbed(
            TestbedConfig(
                seed=3, scheme="wgtt", client_speeds_mph=[0.0],
                client_start_x_m=10.0,  # parked on ap0's boresight
            )
        )
        meter = SwitchingAccuracyMeter(testbed, sample_period_us=50_000)
        source, _ = testbed.add_downlink_udp_flow(0, rate_bps=10e6)
        source.start()
        testbed.run_seconds(4.0)
        # parked at a boresight: the serving AP is the oracle-best AP
        # nearly always (rare deep fades can flip an instant sample)
        assert meter.accuracy() > 0.8
        assert len(meter.samples) >= 70

    def test_capacity_meter_low_loss_at_boresight(self):
        from repro.metrics.capacity import CapacityLossMeter
        from repro.scenarios.testbed import Testbed, TestbedConfig

        testbed = Testbed(
            TestbedConfig(
                seed=3, scheme="wgtt", client_speeds_mph=[0.0],
                client_start_x_m=10.0,
            )
        )
        meter = CapacityLossMeter(testbed, sample_period_us=50_000)
        source, _ = testbed.add_downlink_udp_flow(0, rate_bps=10e6)
        source.start()
        testbed.run_seconds(3.0)
        assert meter.mean_best_mbps() > 20.0
        assert meter.mean_loss_mbps() < meter.mean_best_mbps() * 0.4
