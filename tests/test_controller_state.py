"""The controller's state layout, and the testbeds built around it, pinned.

Checkpoint and handoff payload sizes set backhaul serialization delay,
so their bytes are protocol: a fixed HA drive's shipped checkpoints and
a fixed corridor's shipped handoff slice hash to committed values.  The
two topologies neither drive reaches — one region without a standby,
and the baseline scheme — have their construction pinned the same way:
any drift in RNG stream order, backhaul registration or timer arming
moves a short drive's arrival stream and metrics snapshot.  So does a
region whose primary is killed mid-drive: promotion, the APs' hold and
re-home, edge reports and the lost-downlink count are all in its bytes.  And a crash
forgets exactly what a restore replaces: a crashed controller snapshots
like a freshly built one, durable observability aside.
"""

import hashlib

import numpy as np

from repro.apps.bulk import run_bulk_download
from repro.core.config import WgttConfig
from repro.faults.plan import ControllerCrash, FaultPlan
from repro.ha import ControllerCheckpoint
from repro.mobility.road import Road
from repro.mobility.vehicle import VehicleTrack
from repro.obs.context import ObsConfig
from repro.phy.per import reset_phy_memo_stats, reset_phy_memos
from repro.scenarios.presets import shard_corridor_config
from repro.scenarios.testbed import Testbed, TestbedConfig
from repro.shard.handoff import HANDOFF_KIND
from repro.sim.engine import MS
from tests.test_ha import enrich, make_controller

#: sha256 of every checkpoint shipped in the HA drive below, joined.
HA_CHECKPOINTS_SHA256 = (
    "36a942cb5bfa9840059e951eafad7bbd92c540645bd08bbeae2b4cec0ce2ee41"
)
#: sha256 of the handoff slice shipped in the corridor drive below.
HANDOFF_SLICE_SHA256 = (
    "ec2f104e9b11225e48ba8749110d36f45cb68c9e87cb1e04122e26f40432cec4"
)
#: sha256 of :func:`_drive_digest` for one region without a standby.
CLASSIC_DRIVE_SHA256 = (
    "d83954ecd2b886f6c94af1864be087349e1d50fa45b839862f3f6ee534d6cb1a"
)
#: sha256 of :func:`_drive_digest` for one region with a standby whose
#: primary is killed at 1.5 s and never restarted.
HA_KILL_DRIVE_SHA256 = (
    "b888f4e3687e7eba72313e8fc04efd26b78ed087e3520b8f150ae53bb5d2f7c6"
)
#: sha256 of :func:`_drive_digest` for the baseline scheme (it roams
#: twice, so the over-the-air association path is in the stream).
BASELINE_DRIVE_SHA256 = (
    "592c0bf181ce9b18e3d9e02fb8932d549ed622f9e4f79840d51a412fe400878f"
)
#: sha256 of :func:`_traced_drive_digest`: the trace records of
#: ``repro drive --seconds 3 --speed 25 --trace`` (seed 3): the bytes
#: of its ``.jsonl`` file.
TRACED_DRIVE_SHA256 = (
    "6d0e6fd3639118242b9049f0875f20b7c25d71abffc0097dfdcd4564c1fa2cb5"
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


def _ha_drive():
    """The HA drive: one region with a standby, a downlink and an
    uplink UDP flow (started, not yet run)."""
    testbed = Testbed(
        TestbedConfig(
            seed=3,
            scheme="wgtt",
            wgtt=WgttConfig(ha_enabled=True, checkpoint_interval_us=100 * MS),
        )
    )
    testbed.add_downlink_udp_flow(0, rate_bps=2e6)[0].start()
    testbed.add_uplink_udp_flow(0, rate_bps=1e6)[0].start()
    return testbed


class TestWireBytesPinned:
    def test_ha_checkpoint_bytes(self):
        testbed = _ha_drive()
        shipped = _shipped(testbed, "ha-checkpoint")
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


def _drive_digest(scheme, **config):
    """A 3 s, 20 mph drive with a downlink and an uplink UDP flow,
    collapsed to its arrival streams and metrics snapshot (the PHY
    cache counters describe the caches, not the run, and are left out).
    ``config`` overrides further :class:`TestbedConfig` fields."""
    reset_phy_memos()
    reset_phy_memo_stats()
    testbed = Testbed(
        TestbedConfig(
            seed=5, scheme=scheme, client_speeds_mph=[20.0], **config
        )
    )
    down, down_sink = testbed.add_downlink_udp_flow(0, rate_bps=8e6)
    up, up_sink = testbed.add_uplink_udp_flow(0, rate_bps=1e6)
    down.start()
    up.start()
    testbed.run_seconds(3.0)
    metrics = {
        key: value
        for key, value in testbed.obs.metrics.snapshot().items()
        if not key.startswith("phy_memo{")
    }
    return _sha256(
        [repr((down_sink.arrivals, up_sink.arrivals, metrics)).encode()]
    )


class TestConstructionPinned:
    def test_classic_region_without_standby(self):
        assert _drive_digest("wgtt") == CLASSIC_DRIVE_SHA256

    def test_baseline_scheme(self):
        assert _drive_digest("baseline") == BASELINE_DRIVE_SHA256

    def test_region_whose_primary_is_killed(self):
        digest = _drive_digest(
            "wgtt",
            wgtt=WgttConfig(ha_enabled=True),
            fault_plan=FaultPlan(events=[ControllerCrash(at_us=1500 * MS)]),
        )
        assert digest == HA_KILL_DRIVE_SHA256

    def test_traced_drive(self):
        assert _traced_drive_digest() == TRACED_DRIVE_SHA256


def _traced_drive_digest():
    """sha256 of the JSONL lines ``repro drive --seconds 3 --speed 25
    --trace`` writes: the CLI's configuration, run in-process."""
    reset_phy_memos()
    reset_phy_memo_stats()
    config = TestbedConfig(
        seed=3,
        scheme="wgtt",
        client_speeds_mph=[25.0],
        obs=ObsConfig(trace=True),
    )
    result = run_bulk_download(
        config,
        protocol="tcp",
        duration_s=3.0,
        udp_rate_bps=50e6,
        keep_testbed=True,
    )
    tracer = result.testbed.sim.obs.trace
    tracer.finish()
    return _sha256(line.encode() + b"\n" for line in tracer.jsonl_lines())


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


class TestOneClientRecord:
    def test_restored_controller_cuts_the_same_slices(self):
        """The checkpoint and the handoff slice carry one per-client
        record: at three instants of the HA drive, a controller restored
        from the primary's checkpoint cuts every tracked client's slice
        exactly as the primary does, envelope aside."""
        testbed = _ha_drive()
        envelope = ("extracted_at_us", "from_controller")
        for at_us in (400 * MS, 900 * MS, 1400 * MS):
            testbed.run_until(at_us)
            primary = testbed.controller
            _, restored, _ = make_controller()
            restored.restore(
                ControllerCheckpoint.from_bytes(primary.snapshot().to_bytes())
            )
            assert primary.tracked_clients() == ["client0"]
            assert restored.tracked_clients() == primary.tracked_clients()
            for client_id in primary.tracked_clients():
                want = primary.client_slice(client_id)
                got = restored.client_slice(client_id)
                assert want["dedup_keys"] and want["last_heard"]
                for key in envelope:
                    del want[key], got[key]
                assert got == want
