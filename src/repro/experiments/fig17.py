"""Figure 17: per-client downlink throughput with 1–3 clients.

All clients drive at 15 mph with saturating downlink flows; the paper
reports WGTT's per-client advantage growing slightly with client count
(the baseline suffers more from added contention and loss).
"""

from __future__ import annotations

from typing import Dict, List

from repro.experiments.common import mean, seeds_for
from repro.scenarios.presets import multi_client_config
from repro.scenarios.testbed import Testbed
from repro.experiments.registry import register_experiment


def run_cell(
    seed: int,
    scheme: str,
    protocol: str,
    num_clients: int,
    duration_s: float = 8.0,
    udp_rate_bps: float = 20e6,
) -> float:
    config = multi_client_config(
        num_clients, speed_mph=15.0, seed=seed, scheme=scheme
    )
    testbed = Testbed(config)
    flows = []
    for i in range(num_clients):
        if protocol == "tcp":
            sender, receiver = testbed.add_downlink_tcp_flow(i)
            sender.start()
            flows.append(("tcp", sender, receiver))
        else:
            source, sink = testbed.add_downlink_udp_flow(
                i, rate_bps=udp_rate_bps
            )
            source.start()
            flows.append(("udp", source, sink))
    testbed.run_seconds(duration_s)
    per_client = []
    for kind, a, b in flows:
        if kind == "tcp":
            per_client.append(a.throughput_mbps(testbed.sim.now))
        else:
            per_client.append(b.bytes_received() * 8 / duration_s / 1e6)
    return mean(per_client)


@register_experiment("fig17", "per-client throughput, 1-3 clients")
def run(quick: bool = True) -> Dict:
    seeds = seeds_for(quick)
    counts = (1, 2, 3)
    rows: List[Dict] = []
    for count in counts:
        row: Dict = {"clients": count}
        for protocol in ("tcp", "udp"):
            for scheme in ("wgtt", "baseline"):
                row[f"{protocol}_{scheme}_mbps"] = mean(
                    run_cell(seed, scheme, protocol, count) for seed in seeds
                )
            base = row[f"{protocol}_baseline_mbps"]
            row[f"{protocol}_gain"] = (
                row[f"{protocol}_wgtt_mbps"] / base if base > 0 else float("inf")
            )
        rows.append(row)
    return {"rows": rows}
