"""Tests for the ablation switches in WgttConfig and the selector
metric variants."""

import dataclasses

import pytest

from repro.core.config import WgttConfig
from repro.core.selection import ApSelector
from repro.experiments import ablations
from repro.scenarios.testbed import Testbed, TestbedConfig


class TestSelectorMetrics:
    def seed_readings(self, selector):
        for t, value in [(0, 10.0), (1000, 30.0), (2000, 14.0)]:
            selector.record("c", "ap1", t, value)

    def test_median(self):
        selector = ApSelector(10_000, metric="median")
        self.seed_readings(selector)
        assert selector.median_esnr("c", "ap1", 2000) == 14.0

    def test_mean(self):
        selector = ApSelector(10_000, metric="mean")
        self.seed_readings(selector)
        assert selector.median_esnr("c", "ap1", 2000) == pytest.approx(18.0)

    def test_latest(self):
        selector = ApSelector(10_000, metric="latest")
        self.seed_readings(selector)
        assert selector.median_esnr("c", "ap1", 2000) == 14.0
        selector.record("c", "ap1", 2500, 99.0)
        assert selector.median_esnr("c", "ap1", 2500) == 99.0

    def test_unknown_metric_rejected(self):
        with pytest.raises(ValueError):
            ApSelector(10_000, metric="max")


class TestConfigFlags:
    def test_fanout_disabled_sends_to_serving_only(self):
        config = TestbedConfig(
            seed=3,
            scheme="wgtt",
            client_speeds_mph=[0.0],
            client_start_x_m=13.0,  # several APs hear the client
            wgtt=dataclasses.replace(WgttConfig(), fanout_enabled=False),
        )
        testbed = Testbed(config)
        source, _ = testbed.add_downlink_udp_flow(0, rate_bps=10e6)
        source.start()
        testbed.run_seconds(1.5)
        stats = testbed.controller.stats
        # one backhaul data message per accepted packet: serving only
        assert stats["fanout_messages"] == stats["downlink_accepted"]

    def test_fanout_enabled_replicates(self):
        config = TestbedConfig(
            seed=3, scheme="wgtt", client_speeds_mph=[0.0],
            client_start_x_m=13.0,
        )
        testbed = Testbed(config)
        source, _ = testbed.add_downlink_udp_flow(0, rate_bps=10e6)
        source.start()
        testbed.run_seconds(1.5)
        stats = testbed.controller.stats
        assert stats["fanout_messages"] > 1.2 * stats["downlink_accepted"]

    def test_ba_forwarding_disabled(self):
        config = TestbedConfig(
            seed=3,
            scheme="wgtt",
            client_speeds_mph=[15.0],
            client_start_x_m=6.0,
            wgtt=dataclasses.replace(WgttConfig(), ba_forwarding_enabled=False),
        )
        testbed = Testbed(config)
        sender, _ = testbed.add_downlink_tcp_flow(0)
        sender.start()
        testbed.run_seconds(4.0)
        forwarded = sum(
            ap.stats["ba_forwarded"] for ap in testbed.wgtt_aps.values()
        )
        assert forwarded == 0


class TestAblationDriver:
    def test_unknown_variant_rejected(self):
        with pytest.raises(ValueError):
            ablations.cell(3, "no-such-thing", 0.1)

    def test_variant_runs_and_reports(self):
        result = ablations.cell(3, "paper", 1.0)
        assert set(result) >= {
            "variant", "throughput_mbps", "switches", "tcp_timeouts",
        }

    def test_multichannel_variant_retunes_aps(self):
        result = ablations.cell(3, "multi-channel", 1.0)
        assert result["variant"] == "multi-channel"
