"""Table 4: HD video rebuffer ratio at different speeds.

A locally served 720p stream is watched during the transit; the metric
is the fraction of the transit spent stalled (after the initial
pre-buffer). The paper: zero for WGTT at every speed; 0.54–0.69 for
Enhanced 802.11r, decreasing with speed only because faster transits
are shorter.
"""

from __future__ import annotations

from typing import Dict, List

from repro.apps.video import VideoPlayer
from repro.experiments.common import SCHEMES
from repro.experiments.registry import Claim, register
from repro.experiments.runner import sweep
from repro.scenarios.testbed import Testbed, TestbedConfig
from repro.sim.engine import SECOND

SPEEDS = (5.0, 10.0, 15.0, 20.0)


def cell(seed: int, speed_mph: float, scheme: str) -> Dict:
    config = TestbedConfig(
        seed=seed, scheme=scheme, client_speeds_mph=[speed_mph]
    )
    testbed = Testbed(config)
    sender, receiver = testbed.add_downlink_tcp_flow(0)
    player = VideoPlayer(testbed.sim, receiver)
    sender.start()
    transit_us = min(testbed.transit_duration_us(), 30 * SECOND)
    testbed.run_seconds(transit_us / SECOND)
    player.stop()
    return {
        "rebuffer_ratio": player.rebuffer_ratio(transit_us),
        "rebuffer_count": player.rebuffer_count,
    }


def run(seed: int = 3, quick: bool = True, jobs: int = 1) -> Dict:
    speeds = (5.0, 15.0) if quick else SPEEDS
    cells = sweep(
        cell,
        [(speed, scheme) for speed in speeds for scheme in SCHEMES],
        (seed,),
        jobs,
    )
    rows: List[Dict] = []
    for speed in speeds:
        wgtt, baseline = (cells[speed, scheme][0] for scheme in SCHEMES)
        rows.append(
            {
                "speed_mph": speed,
                "wgtt_ratio": wgtt["rebuffer_ratio"],
                "baseline_ratio": baseline["rebuffer_ratio"],
                "wgtt_rebuffers": wgtt["rebuffer_count"],
                "baseline_rebuffers": baseline["rebuffer_count"],
            }
        )
    return {"rows": rows}


def shape(result: Dict) -> List[Claim]:
    rows = result["rows"]
    return [
        Claim("WGTT plays smoothly at every speed (rebuffer ratio < 0.05)",
              all(row["wgtt_ratio"] < 0.05 for row in rows)),
        Claim("WGTT never rebuffers more than the baseline",
              all(row["wgtt_ratio"] <= row["baseline_ratio"] + 1e-9
                  for row in rows)),
        # At cruising speed the baseline may never even start playing —
        # that counts as stalled time, not as a "rebuffer event".
        Claim("the baseline stalls for more than 15 % of its worst transit",
              max(row["baseline_ratio"] for row in rows) > 0.15),
    ]


register(
    "tab04", "video rebuffer ratio", run, shape=shape, full=True,
    paper="WGTT: 0 at 5-20 mph; Enhanced 802.11r: 0.54-0.69",
)
