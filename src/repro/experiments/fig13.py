"""Figure 13: TCP and UDP throughput vs driving speed, both schemes.

The headline result. The paper reports WGTT holding ~6.6 Mbit/s (TCP) /
~8.7 Mbit/s (UDP) across 5–35 mph while Enhanced 802.11r decays from
2.7/3.3 Mbit/s at 5 mph to 0.8/1.9 Mbit/s at 35 mph — a 2.4–4.7× TCP
and 2.6–4.0× UDP advantage. Absolute numbers differ on our simulated
substrate; the shape — WGTT roughly flat, the baseline decaying, the
ratio growing with speed and landing in the paper's band — is the
reproduction target.
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
from repro.scenarios.testbed import TestbedConfig

FULL_SPEEDS = (0.0, 5.0, 10.0, 15.0, 20.0, 25.0, 35.0)
QUICK_SPEEDS = (5.0, 15.0, 25.0)


def cell(seed: int, speed_mph: float, protocol: str, scheme: str) -> float:
    """One independent simulation: a single (speed, protocol, scheme,
    seed) drive-by.  Module-level and primitive-argument so the grid
    runner can ship it to worker processes."""
    config = TestbedConfig(
        seed=seed, scheme=scheme, client_speeds_mph=[speed_mph]
    )
    drive = Drive(config, protocol)
    drive.run()
    return drive.throughput_mbps()


def run(seed: int = 3, quick: bool = True, jobs: int = 1) -> Dict:
    speeds = QUICK_SPEEDS if quick else FULL_SPEEDS
    seeds = seeds_for(seed, quick)
    cells = sweep(
        cell,
        [
            (speed, protocol, scheme)
            for speed in speeds
            for protocol in PROTOCOLS
            for scheme in SCHEMES
        ],
        seeds,
        jobs,
    )
    return {
        "rows": throughput_rows(cells, "speed_mph", speeds),
        "speeds": list(speeds),
        "seeds": list(seeds),
    }


def shape(result: Dict) -> List[Claim]:
    rows = result["rows"]
    by_speed = {row["speed_mph"]: row for row in rows}
    slowest, fastest = by_speed[min(by_speed)], by_speed[max(by_speed)]
    claims: List[Claim] = []
    for protocol in PROTOCOLS:
        wgtt = [row[f"{protocol}_wgtt_mbps"] for row in rows]
        name = protocol.upper()
        claims += [
            Claim(f"{name}: WGTT moves data at every speed", min(wgtt) > 0),
            Claim(f"{name}: WGTT stays within a 2.5x band across speeds",
                  min(wgtt) > 0 and max(wgtt) / min(wgtt) < 2.5),
            Claim(f"{name}: the baseline decays with speed",
                  fastest[f"{protocol}_baseline_mbps"]
                  < slowest[f"{protocol}_baseline_mbps"]),
            Claim(f"{name}: the gain grows with speed",
                  fastest[f"{protocol}_gain"] > slowest[f"{protocol}_gain"]),
        ]
    # The paper's band is 2.4-4.7x over 5-25 mph.
    return claims + [
        Claim("TCP gain above 1.8x at 15 mph", by_speed[15.0]["tcp_gain"] > 1.8),
        Claim("TCP gain above 2.5x at the fastest speed",
              fastest["tcp_gain"] > 2.5),
        # Our 5 mph baseline is far stronger than the paper's
        # (EXPERIMENTS.md; ROADMAP 2(b) owns the question).
        Claim("TCP gain >= 2.4x at 5 mph", by_speed[5.0]["tcp_gain"] >= 2.4,
              expected=False),
    ]


register(
    "fig13", "throughput vs speed, both schemes", run, shape=shape,
    paper="WGTT flat across speeds; baseline decays; gain 2.4-4.7x TCP",
)
