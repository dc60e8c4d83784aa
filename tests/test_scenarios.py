"""Tests for the testbed builder and scenario presets."""

import pytest

from repro.core.config import WgttConfig
from repro.scenarios import (
    MIXED_DENSITY_AP_XS,
    TestbedConfig,
    Testbed,
    dense_segment_bounds,
    following_config,
    mixed_density_config,
    multi_client_config,
    opposing_config,
    parallel_config,
    sparse_segment_bounds,
    two_ap_config,
)


class TestTestbedConfig:
    def test_default_ap_layout(self):
        config = TestbedConfig()
        xs = config.ap_xs()
        assert len(xs) == 8
        assert xs[0] == 10.0
        assert xs[1] - xs[0] == pytest.approx(7.5)

    def test_explicit_positions_override(self):
        config = TestbedConfig(ap_positions_m=[5.0, 20.0])
        assert config.ap_xs() == [5.0, 20.0]

    def test_road_covers_all_aps(self):
        config = TestbedConfig()
        assert config.road_length_m() > config.ap_xs()[-1]

    def test_unknown_scheme_rejected(self):
        with pytest.raises(ValueError):
            Testbed(TestbedConfig(scheme="5g"))

    @pytest.mark.parametrize(
        "knob, value",
        [
            ("ha_enabled", True),
            ("admission_enabled", True),
            ("fanout_enabled", False),
            ("ba_forwarding_enabled", False),
            ("selection_metric", "mean"),
        ],
    )
    def test_baseline_refuses_wgtt_only_knobs(self, knob, value):
        """The baseline has no controller to read them: a non-default
        ``wgtt`` is refused, naming the field, like ``shard`` and
        ``fault_plan`` are."""
        config = TestbedConfig(scheme="baseline", wgtt=WgttConfig(**{knob: value}))
        with pytest.raises(ValueError, match=f"non-default wgtt fields: {knob}$"):
            Testbed(config)
        Testbed(TestbedConfig(scheme="wgtt", wgtt=WgttConfig(**{knob: value})))


class TestTestbedBuild:
    def test_wgtt_build_wires_everything(self):
        testbed = Testbed(TestbedConfig(seed=1, scheme="wgtt"))
        assert testbed.controller is not None
        assert testbed.wlc is None
        assert len(testbed.wgtt_aps) == 8
        assert len(testbed.clients) == 1
        assert testbed.controller.ap_ids() == set(testbed.ap_ids)

    def test_baseline_build_wires_everything(self):
        testbed = Testbed(TestbedConfig(seed=1, scheme="baseline"))
        assert testbed.wlc is not None
        assert testbed.controller is None
        assert len(testbed.baseline_aps) == 8
        assert testbed.clients[0].agent is not None

    def test_same_seed_same_channel(self):
        """Cross-scheme comparisons rely on identical fading given the
        same seed."""
        a = Testbed(TestbedConfig(seed=5, scheme="wgtt"))
        b = Testbed(TestbedConfig(seed=5, scheme="baseline"))
        snr_a = a.channel.link("ap0", "client0").subcarrier_snr_db(0)
        snr_b = b.channel.link("ap0", "client0").subcarrier_snr_db(0)
        assert snr_a.tolist() == snr_b.tolist()

    def test_run_determinism(self):
        def run():
            testbed = Testbed(
                TestbedConfig(seed=9, scheme="wgtt", client_speeds_mph=[15.0])
            )
            sender, _ = testbed.add_downlink_tcp_flow(0)
            sender.start()
            testbed.run_seconds(2.0)
            return sender.snd_una, len(testbed.controller.coordinator.history)

        assert run() == run()

    def test_multiple_clients(self):
        config = multi_client_config(3, seed=1, scheme="wgtt")
        testbed = Testbed(config)
        assert len(testbed.clients) == 3
        ids = {c.client_id for c in testbed.clients}
        assert ids == {"client0", "client1", "client2"}

    def test_keepalives_emitted_when_idle(self):
        testbed = Testbed(
            TestbedConfig(seed=1, scheme="wgtt", client_speeds_mph=[0.0],
                          client_start_x_m=9.5)
        )
        testbed.run_seconds(2.0)
        assert testbed.clients[0].keepalives_sent > 10

    def test_keepalives_can_be_disabled(self):
        testbed = Testbed(
            TestbedConfig(seed=1, scheme="wgtt", client_speeds_mph=[0.0],
                          client_keepalive_us=0)
        )
        testbed.run_seconds(1.0)
        assert testbed.clients[0].keepalives_sent == 0

    def test_ground_truth_probe_does_not_perturb(self):
        """Oracle sampling must not change the run (side-effect-free
        channel probes): neither the accuracy oracle nor the capacity
        meter may move the transport or any published counter."""
        from repro.metrics.capacity import CapacityLossMeter

        def run(oracle):
            testbed = Testbed(
                TestbedConfig(seed=9, scheme="wgtt", client_speeds_mph=[15.0])
            )
            sender, _ = testbed.add_downlink_tcp_flow(0)
            sender.start()
            if oracle == "capacity_meter":
                meter = CapacityLossMeter(testbed, sample_period_us=20_000)
            for _ in range(10):
                testbed.run_seconds(0.2)
                if oracle == "ground_truth":
                    testbed.best_ap_ground_truth(0, testbed.sim.now)
            if oracle == "capacity_meter":
                assert len(meter.samples) == 100
            # The PHY memo counters see the oracle's own evaluations and
            # the engine counts the meter's own timer; neither is the
            # experiment.
            snapshot = {
                key: value
                for key, value in testbed.obs.metrics.snapshot().items()
                if not key.startswith(("phy_memo", "engine_"))
            }
            return sender.snd_una, snapshot

        plain = run(None)
        assert run("ground_truth") == plain
        assert run("capacity_meter") == plain


class TestPresets:
    def test_two_ap_config(self):
        config = two_ap_config(seed=1, scheme="baseline")
        assert len(config.ap_xs()) == 2

    def test_mixed_density_layout(self):
        config = mixed_density_config(seed=1, scheme="wgtt")
        assert config.ap_xs() == MIXED_DENSITY_AP_XS
        dense = dense_segment_bounds()
        sparse = sparse_segment_bounds()
        dense_span = dense[1] - dense[0]
        sparse_span = sparse[1] - sparse[0]
        # same number of APs covers a longer stretch in the sparse part
        assert sparse_span > dense_span

    def test_following_spacing(self):
        config = following_config(speed_mph=15.0, count=3, spacing_m=3.0, seed=1)
        xs = [t.position_at(0).x for t in config.client_tracks]
        assert xs[0] - xs[1] == pytest.approx(3.0)

    def test_parallel_lanes_differ(self):
        config = parallel_config(speed_mph=15.0, seed=1)
        ys = {t.position_at(0).y for t in config.client_tracks}
        assert len(ys) == 2

    def test_opposing_directions(self):
        config = opposing_config(speed_mph=15.0, seed=1)
        a, b = config.client_tracks
        assert a.direction == 1 and b.direction == -1
