"""Figure 17: per-client downlink throughput with 1–3 clients.

All clients drive at 15 mph with saturating downlink flows; the paper
reports WGTT's per-client advantage growing slightly with client count
(the baseline suffers more from added contention and loss).
"""

from __future__ import annotations

from typing import Dict, List

from repro.apps.bulk import Drive
from repro.experiments.common import (
    PROTOCOLS,
    SCHEMES,
    seeds_for,
    throughput_rows,
)
from repro.experiments.registry import Claim, register
from repro.experiments.runner import sweep
from repro.scenarios.presets import multi_client_config

COUNTS = (1, 2, 3)


def cell(seed: int, num_clients: int, protocol: str, scheme: str) -> float:
    config = multi_client_config(
        num_clients, speed_mph=15.0, seed=seed, scheme=scheme
    )
    drive = Drive(config, protocol, udp_rate_bps=20e6)
    drive.run(8.0)
    return drive.throughput_mbps()


def run(seed: int = 3, quick: bool = True, jobs: int = 1) -> Dict:
    cells = sweep(
        cell,
        [
            (count, protocol, scheme)
            for count in COUNTS
            for protocol in PROTOCOLS
            for scheme in SCHEMES
        ],
        seeds_for(seed, quick),
        jobs,
    )
    return {"rows": throughput_rows(cells, "clients", COUNTS)}


def shape(result: Dict) -> List[Claim]:
    rows = result["rows"]
    return [
        Claim("TCP: WGTT ahead of the baseline at every client count",
              all(r["tcp_wgtt_mbps"] > r["tcp_baseline_mbps"] for r in rows)),
        Claim("UDP: WGTT ahead of the baseline at every client count",
              all(r["udp_wgtt_mbps"] > r["udp_baseline_mbps"] for r in rows)),
        Claim("per-client WGTT TCP throughput falls as clients share the channel",
              rows[0]["tcp_wgtt_mbps"] > rows[-1]["tcp_wgtt_mbps"]),
        Claim("WGTT's TCP gain stays above 1.3x at three clients",
              rows[-1]["tcp_gain"] > 1.3),
        # The paper's growth came from extra vehicles disturbing the
        # baseline's multipath; our fading ignores the other clients
        # (EXPERIMENTS.md; ROADMAP 2(b)).
        Claim("the TCP gain grows with the number of clients",
              rows[-1]["tcp_gain"] > rows[0]["tcp_gain"], expected=False),
    ]


register(
    "fig17", "per-client throughput, 1-3 clients", run, shape=shape,
    paper="WGTT ahead at every client count; advantage holds/grows "
    "with contention (paper: 2.5x -> 2.6x TCP)",
)
