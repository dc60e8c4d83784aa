"""Figure 16: CDF of the link bit rate during a 15 mph drive.

Logs the MCS chosen for every data aggregate transmitted towards the
client under each scheme. The paper's WGTT rides the best AP, so its
rate distribution sits ~30 Mbit/s above the baseline's, with a 90th
percentile around the top single-stream rate.
"""

from __future__ import annotations

from typing import Dict, List

from repro.apps.bulk import Drive
from repro.experiments.common import SCHEMES, mean
from repro.experiments.registry import Claim, register
from repro.experiments.runner import sweep
from repro.metrics.stats import cdf_points, percentile
from repro.obs.recorders import RateUsageLog
from repro.scenarios.testbed import TestbedConfig


def cell(seed: int, scheme: str, duration_s: float) -> Dict:
    config = TestbedConfig(seed=seed, scheme=scheme, client_speeds_mph=[15.0])
    drive = Drive(config, "tcp")
    log = RateUsageLog(drive.testbed, client_id="client0")
    drive.run(duration_s)
    rates = log.rates_mbps()
    return {
        "scheme": scheme,
        "protocol": drive.protocol,
        "rates_mbps": rates,
        "cdf": cdf_points(rates),
        "p50": percentile(rates, 50) if rates else 0.0,
        "p90": percentile(rates, 90) if rates else 0.0,
    }


def run(seed: int = 3, quick: bool = True, jobs: int = 1) -> Dict:
    duration = 6.0 if quick else 10.0
    cells = sweep(cell, [(scheme, duration) for scheme in SCHEMES], (seed,), jobs)
    return {scheme: cells[scheme, duration][0] for scheme in SCHEMES}


def shape(result: Dict) -> List[Claim]:
    wgtt, base = result["wgtt"], result["baseline"]
    return [
        Claim("WGTT's median bit rate is at least the baseline's",
              wgtt["p50"] >= base["p50"]),
        Claim("WGTT's median bit rate is above 20 Mbit/s", wgtt["p50"] > 20.0),
        Claim("WGTT's 90th percentile reaches the top single-stream MCS band "
              "(>= 57.8 Mbit/s)", wgtt["p90"] >= 57.8),
        Claim("WGTT's mean bit rate is above the baseline's",
              mean(wgtt["rates_mbps"]) > mean(base["rates_mbps"])),
    ]


register(
    "fig16", "link bit-rate CDF", run, shape=shape, full=True,
    paper="WGTT 90th percentile ~70 Mbit/s, ~30 Mbit/s above the baseline",
)
