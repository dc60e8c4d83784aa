"""Table 1: running time of the switching protocol vs offered load.

The paper measures the stop → start → ack round at UDP offered loads of
50–90 Mbit/s: mean 17–21 ms with 3–5 ms standard deviation, roughly
flat across load (the cost is kernel/user processing, not queue depth).
"""

from __future__ import annotations

from typing import Dict, List

from repro.metrics.stats import summarize
from repro.scenarios.testbed import Testbed, TestbedConfig
from repro.experiments.registry import register_experiment


def run_rate(seed: int, rate_mbps: float, duration_s: float = 8.0) -> Dict:
    config = TestbedConfig(
        seed=seed, scheme="wgtt", client_speeds_mph=[15.0]
    )
    testbed = Testbed(config)
    source, _sink = testbed.add_downlink_udp_flow(0, rate_bps=rate_mbps * 1e6)
    source.start()
    testbed.run_seconds(duration_s)
    durations_ms = testbed.controller.switch_durations_ms()
    stats = summarize(durations_ms)
    return {
        "rate_mbps": rate_mbps,
        "switches": stats["n"],
        "mean_ms": stats["mean"],
        "std_ms": stats["std"],
    }


@register_experiment("tab01", "switching-protocol execution time")
def run(seed: int = 3, quick: bool = False) -> Dict:
    rates = [50, 70, 90] if quick else [50, 60, 70, 80, 90]
    rows: List[Dict] = [run_rate(seed, rate) for rate in rates]
    return {"rows": rows}
