"""Figure 2: the vehicular picocell regime.

Samples the ESNR of three adjacent AP↔client links at millisecond
resolution while a client drives past at 25 mph, and counts how often
the instantaneously best AP changes — the paper's motivating
observation that the right AP flips at millisecond timescales.
"""

from __future__ import annotations

from typing import Dict, List

from repro.phy.esnr import effective_snr_db
from repro.scenarios.testbed import Testbed, TestbedConfig
from repro.sim.engine import MS, SECOND
from repro.experiments.registry import Claim, register


def run(seed: int = 3, quick: bool = True, jobs: int = 1) -> Dict:
    """Returns the per-AP ESNR series and best-AP flip statistics
    (one offline trace: nothing for ``jobs`` to fan out)."""
    config = TestbedConfig(
        seed=seed, scheme="wgtt", num_aps=3, client_speeds_mph=[25.0]
    )
    testbed = Testbed(config)
    client = testbed.clients[0]
    # Sample through the overlap region of AP0/AP1/AP2.
    start_us = client.track.time_to_reach_x(testbed.config.first_ap_x_m)
    duration_us = int((1.0 if quick else 3.0) * SECOND)
    times: List[int] = list(range(start_us, start_us + duration_us, MS))
    series: Dict[str, List[float]] = {ap: [] for ap in testbed.ap_ids}
    best: List[str] = []
    contested: List[bool] = []
    for t in times:
        readings = []
        for ap_id in testbed.ap_ids:
            link = testbed.channel.link(ap_id, client.client_id)
            # Offline trace: committed sampling gives the true
            # continuous fading path (nothing else runs concurrently).
            esnr = effective_snr_db(link.subcarrier_snr_db(t, tx_id=ap_id))
            series[ap_id].append(esnr)
            readings.append((esnr, ap_id))
        readings.sort(reverse=True)
        best.append(readings[0][1])
        # "Contested": the top two APs are within a fading swing of
        # each other — the overlap zones of Figure 2's detail view.
        contested.append(readings[0][0] - readings[1][0] < 6.0)
    flips = sum(1 for a, b in zip(best, best[1:]) if a != b)
    contested_flips = sum(
        1
        for (a, b, c) in zip(best, best[1:], contested[1:])
        if a != b and c
    )
    contested_ms = max(1, sum(contested))
    return {
        "times_us": times,
        "esnr_series": series,
        "best_ap": best,
        "flips": flips,
        "flips_per_second": flips / (duration_us / SECOND),
        "mean_best_dwell_ms": (duration_us / 1000) / max(flips, 1),
        "contested_fraction": sum(contested) / len(contested),
        "contested_flips_per_second": contested_flips / (contested_ms / 1000.0),
    }


def shape(result: Dict) -> List[Claim]:
    # Millisecond-scale flipping, far beyond any second-scale roaming
    # scheme's reaction time.
    return [
        Claim("the best AP flips more than 20 times a second",
              result["flips_per_second"] > 20),
        Claim("mean dwell on one best AP is under 50 ms",
              result["mean_best_dwell_ms"] < 50),
        Claim("flips are faster still where the top two APs are close",
              result["contested_flips_per_second"] > result["flips_per_second"]),
        Claim("every AP's ESNR swings by more than 5 dB (fading is alive)",
              all(max(s) - min(s) > 5.0 for s in result["esnr_series"].values())),
    ]


register(
    "fig02", "ESNR dynamics / best-AP flip rate", run, shape=shape,
    paper="best AP changes every few ms in the overlap zones; "
    "ESNR swings are fast (coherence ~2-3 ms)",
)
