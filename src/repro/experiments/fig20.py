"""Figures 19/20: multi-client driving patterns.

Two clients at 15 mph in three formations — following (3 m apart),
parallel (adjacent lanes), opposing directions — with downlink flows.
The paper's ranking: opposing best (clients far apart most of the
time), parallel worst (they carrier-sense each other constantly), and
WGTT above the baseline everywhere.
"""

from __future__ import annotations

from typing import Callable, Dict, List

from repro.apps.bulk import Drive
from repro.experiments.common import PROTOCOLS, SCHEMES, mean, seeds_for
from repro.experiments.registry import Claim, register
from repro.experiments.runner import sweep
from repro.scenarios.presets import (
    following_config,
    opposing_config,
    parallel_config,
)

CASES: Dict[str, Callable] = {
    "following": following_config,
    "parallel": parallel_config,
    "opposing": opposing_config,
}


def cell(seed: int, case: str, protocol: str, scheme: str) -> float:
    config = CASES[case](speed_mph=15.0, seed=seed, scheme=scheme)
    drive = Drive(config, protocol, udp_rate_bps=15e6)
    drive.run(8.0)
    return drive.throughput_mbps()


def run(seed: int = 3, quick: bool = True, jobs: int = 1) -> Dict:
    cells = sweep(
        cell,
        [
            (case, protocol, scheme)
            for case in CASES
            for protocol in PROTOCOLS
            for scheme in SCHEMES
        ],
        seeds_for(seed, quick),
        jobs,
    )
    rows: List[Dict] = [
        {
            "case": case,
            **{
                f"{protocol}_{scheme}_mbps": mean(cells[case, protocol, scheme])
                for protocol in PROTOCOLS
                for scheme in SCHEMES
            },
        }
        for case in CASES
    ]
    return {"rows": rows}


def shape(result: Dict) -> List[Claim]:
    rows = {row["case"]: row for row in result["rows"]}
    return [
        Claim("TCP: WGTT above the baseline in all three formations",
              all(r["tcp_wgtt_mbps"] > r["tcp_baseline_mbps"] for r in rows.values())),
        Claim("UDP: WGTT above the baseline in all three formations",
              all(r["udp_wgtt_mbps"] > r["udp_baseline_mbps"] for r in rows.values())),
        # Opposing cars spend most of the drive far apart.
        Claim("WGTT UDP: opposing is at least level with parallel (within 5 %)",
              rows["opposing"]["udp_wgtt_mbps"]
              >= rows["parallel"]["udp_wgtt_mbps"] * 0.95),
    ]


register(
    "fig20", "driving-pattern cases", run, shape=shape,
    paper="opposing > following > parallel; WGTT above the baseline in "
    "all three cases",
)
