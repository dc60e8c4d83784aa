"""The controller's state layout, pinned.

Checkpoint and handoff payload sizes set backhaul serialization delay,
so their bytes are protocol: a fixed HA drive's shipped checkpoints and
a fixed corridor's shipped handoff slice hash to committed values.  And
a crash forgets exactly what a restore replaces: a crashed controller
snapshots like a freshly built one, durable observability aside.
"""

import hashlib

import numpy as np

from repro.core.config import WgttConfig
from repro.mobility.road import Road
from repro.mobility.vehicle import VehicleTrack
from repro.scenarios.presets import shard_corridor_config
from repro.scenarios.testbed import Testbed, TestbedConfig
from repro.shard.handoff import HANDOFF_KIND
from repro.sim.engine import MS
from tests.test_ha import enrich, make_controller

#: sha256 of every checkpoint shipped in the HA drive below, joined.
HA_CHECKPOINTS_SHA256 = (
    "5715f0dcaf37314bb6b0942f73cfef5f4da81e2e18867deafce2a8e0488efa9b"
)
#: sha256 of the handoff slice shipped in the corridor drive below.
HANDOFF_SLICE_SHA256 = (
    "13e50290a1b241bd90c9dceed46cd03fd59b67b9c6c33864de0d51b69b428ab3"
)


def _shipped(testbed, kind):
    """Record the payload bytes of every ``kind`` message sent."""
    shipped = []
    send = testbed.backhaul.send

    def recording(src, dst, sent_kind, payload, *args, **kwargs):
        if sent_kind == kind:
            shipped.append(getattr(payload, "state", payload))
        return send(src, dst, sent_kind, payload, *args, **kwargs)

    testbed.backhaul.send = recording
    return shipped


def _sha256(chunks):
    return hashlib.sha256(b"".join(chunks)).hexdigest()


class TestWireBytesPinned:
    def test_ha_checkpoint_bytes(self):
        testbed = Testbed(
            TestbedConfig(
                seed=3,
                scheme="wgtt",
                wgtt=WgttConfig(
                    ha_enabled=True, checkpoint_interval_us=100 * MS
                ),
            )
        )
        shipped = _shipped(testbed, "ha-checkpoint")
        testbed.add_downlink_udp_flow(0, rate_bps=2e6)[0].start()
        testbed.add_uplink_udp_flow(0, rate_bps=1e6)[0].start()
        testbed.run_seconds(1.5)
        assert len(shipped) == 15
        assert _sha256(shipped) == HA_CHECKPOINTS_SHA256

    def test_handoff_slice_bytes(self):
        config = shard_corridor_config(num_shards=2, num_aps=8, seed=3)
        road = Road(length_m=config.road_length_m())
        config.client_tracks = [
            VehicleTrack(
                road, start_x=config.client_start_x_m, speed_mph=25.0
            )
        ]
        testbed = Testbed(config)
        shipped = _shipped(testbed, HANDOFF_KIND)
        testbed.add_downlink_udp_flow(0, rate_bps=4e6)[0].start()
        testbed.add_uplink_udp_flow(0, rate_bps=1e6)[0].start()
        testbed.run_seconds(5.0)
        assert len(shipped) == 1
        assert _sha256(shipped) == HANDOFF_SLICE_SHA256


#: Snapshot parts a crash keeps: observability, not protocol state.
_DURABLE = {
    "coordinator": ("abandoned", "aborted", "history"),
    "dedup": ("accepted", "duplicates"),
    "liveness": ("events",),
}


def _protocol_state(controller):
    state = controller.snapshot().state
    for store, keys in _DURABLE.items():
        for key in keys:
            del state[store][key]
    return state


class TestCrashForgetsWhatRestoreReplaces:
    def test_crashed_snapshot_equals_fresh(self):
        sim, controller, _ = make_controller()
        enrich(sim, controller, np.random.default_rng(3))
        controller._ap_down("ap2")  # a dead AP and a failover in flight
        before = controller.snapshot().state
        assert before["clients"] and before["dead_aps"]
        controller.crash()
        _, fresh, _ = make_controller()
        assert _protocol_state(controller) == _protocol_state(fresh)
        # ... and what a crash keeps is exactly what it had.
        after = controller.snapshot().state
        for store, keys in _DURABLE.items():
            for key in keys:
                assert after[store][key] == before[store][key]
