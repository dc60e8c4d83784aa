"""Table 1: running time of the switching protocol vs offered load.

The paper measures the stop → start → ack round at UDP offered loads of
50–90 Mbit/s: mean 17–21 ms with 3–5 ms standard deviation, roughly
flat across load (the cost is kernel/user processing, not queue depth).
"""

from __future__ import annotations

from typing import Dict, List

from repro.apps.bulk import Drive
from repro.experiments.registry import Claim, register
from repro.experiments.runner import sweep
from repro.metrics.stats import summarize
from repro.scenarios.testbed import TestbedConfig


def cell(seed: int, rate_mbps: float) -> Dict:
    config = TestbedConfig(
        seed=seed, scheme="wgtt", client_speeds_mph=[15.0]
    )
    drive = Drive(config, "udp", udp_rate_bps=rate_mbps * 1e6)
    drive.run(8.0)
    stats = summarize(drive.testbed.controller.switch_durations_ms())
    return {
        "rate_mbps": rate_mbps,
        "switches": stats["n"],
        "mean_ms": stats["mean"],
        "std_ms": stats["std"],
    }


def run(seed: int = 3, quick: bool = True, jobs: int = 1) -> Dict:
    rates = [50, 70, 90] if quick else [50, 60, 70, 80, 90]
    cells = sweep(cell, [(rate,) for rate in rates], (seed,), jobs)
    return {"rows": [values[0] for values in cells.values()]}


def shape(result: Dict) -> List[Claim]:
    rows = result["rows"]
    means = [row["mean_ms"] for row in rows]
    # Low tens of ms, flat across load, modest variance.
    return [
        Claim("the mean switch time is 10-28 ms at every load (paper: 17-21 ms)",
              all(10.0 <= m <= 28.0 for m in means)),
        Claim("the mean is flat across load (spread under 6 ms)",
              max(means) - min(means) < 6.0),
        Claim("the standard deviation is under 8 ms (paper: 3-5 ms)",
              all(row["std_ms"] < 8.0 for row in rows)),
        Claim("at least five switches were timed at every load",
              all(row["switches"] >= 5 for row in rows)),
    ]


register(
    "tab01", "switching-protocol execution time", run, shape=shape,
    paper="mean 17-21 ms, std 3-5 ms at 50/60/70/80/90 Mbit/s",
)
