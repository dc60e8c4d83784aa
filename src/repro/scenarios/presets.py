"""Scenario presets matching the paper's deployments.

The testbed of Figure 9 is not uniformly spaced: APs 2–4 sit densely
while APs 5–7 are sparse. These helpers produce the layouts and
multi-client driving patterns (Figure 19) the evaluation uses.

Every preset is *declarative*: it returns a plain
:class:`~repro.scenarios.testbed.TestbedConfig` spec — nothing is
built until the spec is handed to ``Testbed(config)``.  The
:data:`PRESETS` registry maps CLI-friendly names to these factories;
``python -m repro drive --preset <name>`` resolves through it.
"""

from __future__ import annotations

from typing import Callable, Dict, List

from repro.mobility.road import Road
from repro.mobility.vehicle import VehicleTrack
from repro.scenarios.testbed import TestbedConfig
from repro.shard.config import ShardConfig

#: Figure-9-style layout: a dense cluster (AP1–AP4) then a sparse tail
#: (AP5–AP7). Distances in metres along the road.
MIXED_DENSITY_AP_XS: List[float] = [10.0, 17.5, 23.0, 28.5, 34.0, 44.0, 54.0, 64.0]


def mixed_density_config(**overrides) -> TestbedConfig:
    """The paper's actual deployment shape: dense middle, sparse tail."""
    return TestbedConfig(ap_positions_m=list(MIXED_DENSITY_AP_XS), **overrides)


def dense_segment_bounds() -> tuple:
    """Road x-range covered by the densely deployed APs (AP2–AP4)."""
    return (MIXED_DENSITY_AP_XS[1], MIXED_DENSITY_AP_XS[4])


def sparse_segment_bounds() -> tuple:
    """Road x-range covered by the sparsely deployed APs (AP5–AP7)."""
    return (MIXED_DENSITY_AP_XS[4], MIXED_DENSITY_AP_XS[7])


def two_ap_config(**overrides) -> TestbedConfig:
    """The §2 motivation setup: two APs, 7.5 m apart."""
    return TestbedConfig(num_aps=2, ap_spacing_m=7.5, **overrides)


def following_config(
    speed_mph: float = 15.0, count: int = 2, spacing_m: float = 3.0, **overrides
) -> TestbedConfig:
    """Clients driving in single file, 3 m apart (Figure 19a)."""
    config = TestbedConfig(**overrides)
    road = Road(length_m=config.road_length_m())
    config.client_tracks = [
        VehicleTrack(
            road,
            start_x=config.client_start_x_m - i * spacing_m,
            speed_mph=speed_mph,
        )
        for i in range(count)
    ]
    return config


def parallel_config(speed_mph: float = 15.0, **overrides) -> TestbedConfig:
    """Two clients abreast in adjacent lanes (Figure 19b)."""
    config = TestbedConfig(**overrides)
    length = config.road_length_m()
    near_road = Road(length_m=length)
    far_road = Road(
        length_m=length,
        near_lane_y=near_road.far_lane_y,
        far_lane_y=near_road.near_lane_y,
    )
    config.client_tracks = [
        VehicleTrack(near_road, start_x=config.client_start_x_m, speed_mph=speed_mph),
        VehicleTrack(far_road, start_x=config.client_start_x_m, speed_mph=speed_mph),
    ]
    return config


def opposing_config(speed_mph: float = 15.0, **overrides) -> TestbedConfig:
    """Two clients passing in opposite directions (Figure 19c)."""
    config = TestbedConfig(**overrides)
    road = Road(length_m=config.road_length_m())
    config.client_tracks = [
        VehicleTrack(road, start_x=config.client_start_x_m, speed_mph=speed_mph),
        VehicleTrack(
            road,
            start_x=road.length_m - config.client_start_x_m,
            speed_mph=speed_mph,
            direction=-1,
        ),
    ]
    return config


def multi_client_config(
    count: int, speed_mph: float = 15.0, gap_m: float = 8.0, **overrides
) -> TestbedConfig:
    """N clients in the near lane with a healthy gap (Figure 17)."""
    config = TestbedConfig(**overrides)
    road = Road(length_m=config.road_length_m())
    config.client_tracks = [
        VehicleTrack(
            road,
            start_x=config.client_start_x_m - i * gap_m,
            speed_mph=speed_mph,
        )
        for i in range(count)
    ]
    return config


def shard_corridor_config(
    num_shards: int = 2, num_aps: int = 16, **overrides
) -> TestbedConfig:
    """A city-scale corridor split into contiguous AP-cluster shards.

    Each shard runs its own controller; clients crossing a shard
    boundary hand off via the checkpoint-based inter-shard protocol
    (``repro.shard``).  Tune the partition via ``shard=ShardConfig(...)``
    in ``overrides``.
    """
    overrides.setdefault("shard", ShardConfig(num_shards=num_shards))
    return TestbedConfig(num_aps=num_aps, **overrides)


#: CLI-facing preset registry: name -> declarative config factory.
#: Factories accept ``TestbedConfig`` field overrides as keyword
#: arguments; presets that pin ``client_tracks`` (following/parallel/
#: opposing) ignore speed overrides applied after the fact.
PRESETS: Dict[str, Callable[..., TestbedConfig]] = {
    "following": following_config,
    "mixed-density": mixed_density_config,
    "opposing": opposing_config,
    "parallel": parallel_config,
    "shard-corridor": shard_corridor_config,
    "two-ap": two_ap_config,
}


def preset_names() -> List[str]:
    """The registry's names, sorted (inspection for tests)."""
    return sorted(PRESETS)


def preset(name: str, **overrides) -> TestbedConfig:
    """Resolve a preset by registry name into a config spec."""
    factory = PRESETS.get(name)
    if factory is None:
        raise ValueError(
            f"unknown preset {name!r}; available: {preset_names()}"
        )
    return factory(**overrides)
