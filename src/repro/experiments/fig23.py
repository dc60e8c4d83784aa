"""Figure 23: UDP throughput in dense vs sparse AP segments.

The testbed's actual layout has a densely deployed stretch (AP2–AP4)
and a sparse one (AP5–AP7). Driving through each at several speeds, the
paper finds WGTT consistently high in both, with the dense segment
ahead thanks to stronger uplink/overhearing diversity.
"""

from __future__ import annotations

from typing import Dict, List, Optional

from repro.experiments.common import mean, seeds_for
from repro.experiments.runner import run_grid
from repro.scenarios.presets import (
    dense_segment_bounds,
    mixed_density_config,
    sparse_segment_bounds,
)
from repro.scenarios.testbed import Testbed
from repro.sim.engine import SECOND
from repro.experiments.registry import register_experiment


def run_cell(
    seed: int,
    scheme: str,
    speed_mph: float,
    udp_rate_bps: float = 50e6,
) -> Dict:
    config = mixed_density_config(
        seed=seed, scheme=scheme, client_speeds_mph=[speed_mph]
    )
    testbed = Testbed(config)
    source, sink = testbed.add_downlink_udp_flow(0, rate_bps=udp_rate_bps)
    source.start()
    track = testbed.clients[0].track
    end_x = sparse_segment_bounds()[1]
    duration_s = min(track.time_to_reach_x(end_x) / SECOND + 0.5, 40.0)
    testbed.run_seconds(duration_s)

    def segment_throughput(bounds) -> float:
        start_us = track.time_to_reach_x(bounds[0])
        end_us = track.time_to_reach_x(bounds[1])
        return sink.throughput_bps(start_us, end_us) / 1e6

    return {
        "dense_mbps": segment_throughput(dense_segment_bounds()),
        "sparse_mbps": segment_throughput(sparse_segment_bounds()),
    }


@register_experiment("fig23", "dense vs sparse segments")
def run(quick: bool = True, jobs: Optional[int] = None) -> Dict:
    seeds = seeds_for(quick)
    speeds = (5.0, 10.0) if quick else (2.0, 5.0, 10.0)
    grid = [
        (seed, scheme, speed)
        for speed in speeds
        for scheme in ("wgtt", "baseline")
        for seed in seeds
    ]
    results = iter(run_grid(run_cell, grid, jobs=jobs))
    rows: List[Dict] = []
    for speed in speeds:
        row: Dict = {"speed_mph": speed}
        for scheme in ("wgtt", "baseline"):
            cells = [next(results) for _ in seeds]
            row[f"{scheme}_dense_mbps"] = mean(c["dense_mbps"] for c in cells)
            row[f"{scheme}_sparse_mbps"] = mean(c["sparse_mbps"] for c in cells)
        rows.append(row)
    return {"rows": rows}
