"""Figure 22: impact of the switching time hysteresis T.

TCP at 15 mph with T = 40 / 80 / 120 ms. Smaller hysteresis lets the
controller ride fast channel changes, so throughput rises as T shrinks.
"""

from __future__ import annotations

from typing import Dict, List

from repro.core.config import WgttConfig
from repro.experiments.common import mean, seeds_for
from repro.scenarios.testbed import Testbed, TestbedConfig
from repro.experiments.registry import register_experiment

HYSTERESIS_MS = (40, 80, 120)


def run_cell(seed: int, hysteresis_ms: int, duration_s: float = 10.0) -> Dict:
    wgtt = WgttConfig(time_hysteresis_us=hysteresis_ms * 1000)
    config = TestbedConfig(
        seed=seed, scheme="wgtt", client_speeds_mph=[15.0], wgtt=wgtt
    )
    testbed = Testbed(config)
    sender, receiver = testbed.add_downlink_tcp_flow(0)
    sender.start()
    testbed.run_seconds(duration_s)
    return {
        "throughput_mbps": sender.throughput_mbps(testbed.sim.now),
        "switches": len(testbed.controller.coordinator.history),
        "series": receiver.goodput_series_mbps(testbed.sim.now),
    }


@register_experiment("fig22", "time-hysteresis sweep")
def run(quick: bool = True) -> Dict:
    seeds = seeds_for(quick)
    duration = 8.0 if quick else 10.0
    rows: List[Dict] = []
    for hyst in HYSTERESIS_MS:
        cells = [run_cell(seed, hyst, duration) for seed in seeds]
        rows.append(
            {
                "hysteresis_ms": hyst,
                "throughput_mbps": mean(c["throughput_mbps"] for c in cells),
                "switches": mean(c["switches"] for c in cells),
            }
        )
    return {"rows": rows}
