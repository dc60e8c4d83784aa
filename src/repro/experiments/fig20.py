"""Figures 19/20: multi-client driving patterns.

Two clients at 15 mph in three formations — following (3 m apart),
parallel (adjacent lanes), opposing directions — with downlink flows.
The paper's ranking: opposing best (clients far apart most of the
time), parallel worst (they carrier-sense each other constantly), and
WGTT above the baseline everywhere.
"""

from __future__ import annotations

from typing import Callable, Dict, List

from repro.experiments.common import mean, seeds_for
from repro.scenarios.presets import (
    following_config,
    opposing_config,
    parallel_config,
)
from repro.scenarios.testbed import Testbed
from repro.experiments.registry import register_experiment

CASES: Dict[str, Callable] = {
    "following": following_config,
    "parallel": parallel_config,
    "opposing": opposing_config,
}


def run_cell(
    seed: int,
    scheme: str,
    protocol: str,
    case: str,
    duration_s: float = 8.0,
    udp_rate_bps: float = 15e6,
) -> float:
    config = CASES[case](speed_mph=15.0, seed=seed, scheme=scheme)
    testbed = Testbed(config)
    flows = []
    for i in range(len(testbed.clients)):
        if protocol == "tcp":
            sender, receiver = testbed.add_downlink_tcp_flow(i)
            sender.start()
            flows.append(("tcp", sender, receiver))
        else:
            source, sink = testbed.add_downlink_udp_flow(i, rate_bps=udp_rate_bps)
            source.start()
            flows.append(("udp", source, sink))
    testbed.run_seconds(duration_s)
    values = []
    for kind, a, b in flows:
        if kind == "tcp":
            values.append(a.throughput_mbps(testbed.sim.now))
        else:
            values.append(b.bytes_received() * 8 / duration_s / 1e6)
    return mean(values)


@register_experiment("fig20", "driving-pattern cases")
def run(quick: bool = True) -> Dict:
    seeds = seeds_for(quick)
    rows: List[Dict] = []
    for case in CASES:
        row: Dict = {"case": case}
        for protocol in ("tcp", "udp"):
            for scheme in ("wgtt", "baseline"):
                row[f"{protocol}_{scheme}_mbps"] = mean(
                    run_cell(seed, scheme, protocol, case) for seed in seeds
                )
        rows.append(row)
    return {"rows": rows}
