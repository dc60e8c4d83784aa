"""Scenarios: the 8-AP roadside testbed and layout presets."""

from repro.scenarios.presets import (
    MIXED_DENSITY_AP_XS,
    dense_segment_bounds,
    following_config,
    mixed_density_config,
    multi_client_config,
    opposing_config,
    parallel_config,
    sparse_segment_bounds,
    two_ap_config,
)
from repro.scenarios.testbed import ClientNode, Testbed, TestbedConfig

__all__ = [
    "ClientNode",
    "Testbed",
    "TestbedConfig",
    "MIXED_DENSITY_AP_XS",
    "dense_segment_bounds",
    "following_config",
    "mixed_density_config",
    "multi_client_config",
    "opposing_config",
    "parallel_config",
    "sparse_segment_bounds",
    "two_ap_config",
]
