"""Figure 16: CDF of the link bit rate during a 15 mph drive.

Logs the MCS chosen for every data aggregate transmitted towards the
client under each scheme. The paper's WGTT rides the best AP, so its
rate distribution sits ~30 Mbit/s above the baseline's, with a 90th
percentile around the top single-stream rate.
"""

from __future__ import annotations

from typing import Dict

from repro.obs.recorders import RateUsageLog
from repro.metrics.stats import cdf_points, percentile
from repro.scenarios.testbed import Testbed, TestbedConfig
from repro.experiments.registry import register_experiment


def run_scheme(
    seed: int, scheme: str, protocol: str = "tcp", duration_s: float = 10.0
) -> Dict:
    config = TestbedConfig(seed=seed, scheme=scheme, client_speeds_mph=[15.0])
    testbed = Testbed(config)
    log = RateUsageLog(testbed, client_id="client0")
    if protocol == "tcp":
        sender, _receiver = testbed.add_downlink_tcp_flow(0)
        sender.start()
    else:
        source, _sink = testbed.add_downlink_udp_flow(0, rate_bps=50e6)
        source.start()
    testbed.run_seconds(duration_s)
    rates = log.rates_mbps()
    return {
        "scheme": scheme,
        "protocol": protocol,
        "rates_mbps": rates,
        "cdf": cdf_points(rates),
        "p50": percentile(rates, 50) if rates else 0.0,
        "p90": percentile(rates, 90) if rates else 0.0,
    }


@register_experiment("fig16", "link bit-rate CDF")
def run(seed: int = 3, protocol: str = "tcp", quick: bool = False) -> Dict:
    duration = 6.0 if quick else 10.0
    return {
        "wgtt": run_scheme(seed, "wgtt", protocol, duration),
        "baseline": run_scheme(seed, "baseline", protocol, duration),
    }
