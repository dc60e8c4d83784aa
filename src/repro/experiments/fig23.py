"""Figure 23: UDP throughput in dense vs sparse AP segments.

The testbed's actual layout has a densely deployed stretch (AP2–AP4)
and a sparse one (AP5–AP7). Driving through each at several speeds, the
paper finds WGTT consistently high in both, with the dense segment
ahead thanks to stronger uplink/overhearing diversity.
"""

from __future__ import annotations

from typing import Dict, List

from repro.apps.bulk import Drive
from repro.experiments.common import SCHEMES, mean, seeds_for
from repro.experiments.registry import Claim, register
from repro.experiments.runner import sweep
from repro.scenarios.presets import (
    dense_segment_bounds,
    mixed_density_config,
    sparse_segment_bounds,
)
from repro.sim.engine import SECOND


def cell(seed: int, speed_mph: float, scheme: str) -> Dict:
    config = mixed_density_config(
        seed=seed, scheme=scheme, client_speeds_mph=[speed_mph]
    )
    drive = Drive(config, "udp")
    sink = drive.receivers[0]
    track = drive.testbed.clients[0].track
    end_x = sparse_segment_bounds()[1]
    drive.run(min(track.time_to_reach_x(end_x) / SECOND + 0.5, 40.0))

    def segment_throughput(bounds) -> float:
        start_us = track.time_to_reach_x(bounds[0])
        end_us = track.time_to_reach_x(bounds[1])
        return sink.throughput_bps(start_us, end_us) / 1e6

    return {
        "dense_mbps": segment_throughput(dense_segment_bounds()),
        "sparse_mbps": segment_throughput(sparse_segment_bounds()),
    }


def run(seed: int = 3, quick: bool = True, jobs: int = 1) -> Dict:
    speeds = (5.0, 10.0) if quick else (2.0, 5.0, 10.0)
    cells = sweep(
        cell,
        [(speed, scheme) for speed in speeds for scheme in SCHEMES],
        seeds_for(seed, quick),
        jobs,
    )
    rows: List[Dict] = []
    for speed in speeds:
        row: Dict = {"speed_mph": speed}
        for scheme in SCHEMES:
            values = cells[speed, scheme]
            row[f"{scheme}_dense_mbps"] = mean(c["dense_mbps"] for c in values)
            row[f"{scheme}_sparse_mbps"] = mean(c["sparse_mbps"] for c in values)
        rows.append(row)
    return {"rows": rows}


def shape(result: Dict) -> List[Claim]:
    rows = result["rows"]
    return [
        Claim("WGTT beats the baseline in the dense segment at every speed",
              all(r["wgtt_dense_mbps"] > r["baseline_dense_mbps"] for r in rows)),
        Claim("WGTT's dense segment beats its own sparse segment",
              all(r["wgtt_dense_mbps"] > r["wgtt_sparse_mbps"] for r in rows)),
        Claim("WGTT stays above 1 Mbit/s where APs are sparse",
              all(r["wgtt_sparse_mbps"] > 1.0 for r in rows)),
    ]


register(
    "fig23", "dense vs sparse segments", run, shape=shape,
    paper="WGTT consistently high in both; dense segment higher "
    "(paper: ~9.3 vs ~6.7 Mbit/s)",
)
