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
from repro.scenarios.testbed import Testbed, TestbedConfig
from repro.sim.engine import SECOND
from repro.experiments.registry import register_experiment

SPEEDS = (5.0, 10.0, 15.0, 20.0)


def run_cell(seed: int, scheme: str, speed_mph: float) -> Dict:
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


@register_experiment("tab04", "video rebuffer ratio")
def run(seed: int = 3, quick: bool = False) -> Dict:
    speeds = (5.0, 15.0) if quick else SPEEDS
    rows: List[Dict] = []
    for speed in speeds:
        wgtt = run_cell(seed, "wgtt", speed)
        baseline = run_cell(seed, "baseline", speed)
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
