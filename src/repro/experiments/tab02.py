"""Table 2: switching accuracy of WGTT vs Enhanced 802.11r.

Accuracy = fraction of time the client is attached to the AP with the
maximal instantaneous ESNR (oracle-sampled, non-perturbing). The paper:
WGTT > 90 % for both TCP and UDP; Enhanced 802.11r ~20 %.
"""

from __future__ import annotations

from typing import Dict

from repro.metrics.accuracy import SwitchingAccuracyMeter
from repro.scenarios.testbed import Testbed, TestbedConfig
from repro.experiments.registry import register_experiment


def run_cell(
    seed: int, scheme: str, protocol: str, duration_s: float = 10.0
) -> float:
    config = TestbedConfig(seed=seed, scheme=scheme, client_speeds_mph=[15.0])
    testbed = Testbed(config)
    meter = SwitchingAccuracyMeter(testbed, sample_period_us=20_000)
    if protocol == "tcp":
        sender, _ = testbed.add_downlink_tcp_flow(0)
        sender.start()
    else:
        source, _ = testbed.add_downlink_udp_flow(0, rate_bps=50e6)
        source.start()
    testbed.run_seconds(duration_s)
    return meter.accuracy()


@register_experiment("tab02", "switching accuracy")
def run(seed: int = 3, quick: bool = False) -> Dict:
    duration = 6.0 if quick else 10.0
    rows = []
    for protocol in ("tcp", "udp"):
        rows.append(
            {
                "protocol": protocol,
                "wgtt_pct": 100.0 * run_cell(seed, "wgtt", protocol, duration),
                "baseline_pct": 100.0
                * run_cell(seed, "baseline", protocol, duration),
            }
        )
    return {"rows": rows}
