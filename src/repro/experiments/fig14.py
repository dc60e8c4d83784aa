"""Figures 14 & 15: throughput timeseries and AP association timeline.

A single 15 mph drive under each scheme, logging per-250 ms goodput and
which AP the client is attached to. The paper's picture: WGTT switches
~5×/s and holds steady throughput; Enhanced 802.11r rides each AP past
its cell edge, collapses, and (for TCP, Figure 14) hits an RTO drought;
with the constant-rate UDP workload (Figure 15) it switches only ~3
times in 10 s and is unstable.
"""

from __future__ import annotations

from typing import Dict, List, Tuple

import numpy as np

from repro.apps.bulk import Drive
from repro.experiments.common import SCHEMES
from repro.experiments.registry import Claim, register
from repro.experiments.runner import sweep
from repro.scenarios.testbed import TestbedConfig
from repro.sim.engine import MS, SECOND, Timer


def cell(seed: int, scheme: str, protocol: str, duration_s: float) -> Dict:
    config = TestbedConfig(seed=seed, scheme=scheme, client_speeds_mph=[15.0])
    drive = Drive(config, protocol)
    testbed = drive.testbed
    association_series: List[Tuple[int, str]] = []

    def sample_association():
        association_series.append(
            (testbed.sim.now, testbed.serving_ap_of(0) or "-")
        )
        sampler.start(50 * MS)

    sampler = Timer(testbed.sim, sample_association)
    sampler.start(50 * MS)
    drive.run(duration_s)
    switches = drive.switch_count()
    return {
        "scheme": scheme,
        "protocol": protocol,
        "throughput_mbps": drive.throughput_mbps(),
        "goodput_series_mbps": drive.series_mbps(bin_us=250 * MS),
        "association_series": association_series,
        "association_changes": switches,
        "switches_per_second": switches / duration_s,
        "tcp_timeout_times_s": [t / SECOND for t in drive.tcp_timeout_log()],
    }


def _run(protocol: str, seed: int, quick: bool, jobs: int) -> Dict:
    duration = 6.0 if quick else 10.0
    cells = sweep(
        cell, [(scheme, protocol, duration) for scheme in SCHEMES], (seed,), jobs
    )
    return {scheme: cells[scheme, protocol, duration][0] for scheme in SCHEMES}


def run_tcp(seed: int = 3, quick: bool = True, jobs: int = 1) -> Dict:
    return _run("tcp", seed, quick, jobs)


def run_udp(seed: int = 3, quick: bool = True, jobs: int = 1) -> Dict:
    return _run("udp", seed, quick, jobs)


def shape_tcp(result: Dict) -> List[Claim]:
    wgtt, base = result["wgtt"], result["baseline"]
    # The baseline stalls: long zero stretches in its goodput series.
    base_zero = sum(1 for g in base["goodput_series_mbps"] if g < 0.1)
    wgtt_zero = sum(1 for g in wgtt["goodput_series_mbps"] if g < 0.1)
    return [
        Claim("WGTT switches more than 3x as often as the baseline",
              wgtt["switches_per_second"] > 3 * base["switches_per_second"]),
        Claim("WGTT switches at least 1.5 times a second",
              wgtt["switches_per_second"] >= 1.5),
        Claim("WGTT TCP throughput is more than 1.8x the baseline's",
              wgtt["throughput_mbps"] > 1.8 * base["throughput_mbps"]),
        Claim("the baseline's goodput sits at zero for at least four 250 ms bins",
              base_zero >= 4),
        Claim("WGTT never has a comparably long blackout", wgtt_zero < base_zero),
    ]


def shape_udp(result: Dict) -> List[Claim]:
    wgtt, base = result["wgtt"], result["baseline"]

    def cov(series: List[float]) -> float:
        arr = np.array(series)
        return arr.std() / max(arr.mean(), 1e-9)

    return [
        Claim("WGTT switches more than 2x as often as the baseline",
              wgtt["switches_per_second"] > 2 * base["switches_per_second"]),
        Claim("WGTT UDP throughput is more than 1.3x the baseline's",
              wgtt["throughput_mbps"] > 1.3 * base["throughput_mbps"]),
        Claim("WGTT's series is steadier relative to its mean than the baseline's",
              cov(wgtt["goodput_series_mbps"]) < cov(base["goodput_series_mbps"])),
    ]


register(
    "fig14", "TCP timeseries + association timeline", run_tcp,
    shape=shape_tcp, full=True,
    paper="WGTT ~5 switches/s, stable ~5 Mbit/s; baseline drops to zero "
    "and hits an RTO drought",
)
register(
    "fig15", "UDP timeseries + association timeline", run_udp,
    shape=shape_udp, full=True,
    paper="WGTT switches frequently, rate stays up; baseline switches "
    "~3 times in 10 s with unstable throughput",
)
