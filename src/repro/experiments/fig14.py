"""Figures 14 & 15: throughput timeseries and AP association timeline.

A single 15 mph drive under each scheme, logging per-250 ms goodput and
which AP the client is attached to. The paper's picture: WGTT switches
~5×/s and holds steady throughput; Enhanced 802.11r rides each AP past
its cell edge, collapses, and (for TCP) hits an RTO drought.
"""

from __future__ import annotations

from typing import Dict, List, Tuple

from repro.scenarios.testbed import Testbed, TestbedConfig
from repro.sim.engine import MS, SECOND, Timer
from repro.experiments.registry import register_experiment


def run_scheme(
    seed: int, scheme: str, protocol: str = "tcp", speed_mph: float = 15.0,
    duration_s: float = 10.0, udp_rate_bps: float = 50e6,
) -> Dict:
    config = TestbedConfig(
        seed=seed, scheme=scheme, client_speeds_mph=[speed_mph]
    )
    testbed = Testbed(config)
    association_series: List[Tuple[int, str]] = []

    def sample_association():
        association_series.append(
            (testbed.sim.now, testbed.serving_ap_of(0) or "-")
        )
        sampler.start(50 * MS)

    sampler = Timer(testbed.sim, sample_association)
    sampler.start(50 * MS)

    if protocol == "tcp":
        sender, receiver = testbed.add_downlink_tcp_flow(0)
        sender.start()
        testbed.run_seconds(duration_s)
        series = receiver.goodput_series_mbps(
            testbed.sim.now, bin_us=250 * MS
        )
        timeouts = sender.timeout_log
        throughput = sender.throughput_mbps(testbed.sim.now)
    else:
        source, sink = testbed.add_downlink_udp_flow(0, rate_bps=udp_rate_bps)
        source.start()
        testbed.run_seconds(duration_s)
        series = sink.throughput_series_mbps(testbed.sim.now, bin_us=250 * MS)
        timeouts = []
        throughput = sink.bytes_received() * 8 / duration_s / 1e6

    if testbed.controller is not None:
        switches = len(testbed.controller.coordinator.history)
    else:
        switches = max(0, len(testbed.clients[0].agent.association_log) - 1)
    return {
        "scheme": scheme,
        "protocol": protocol,
        "throughput_mbps": throughput,
        "goodput_series_mbps": series,
        "association_series": association_series,
        "association_changes": switches,
        "switches_per_second": switches / duration_s,
        "tcp_timeout_times_s": [t / SECOND for t in timeouts],
    }


@register_experiment("fig14", "TCP timeseries + association timeline")
def run(seed: int = 3, protocol: str = "tcp", quick: bool = False) -> Dict:
    duration = 6.0 if quick else 10.0
    return {
        "wgtt": run_scheme(seed, "wgtt", protocol, duration_s=duration),
        "baseline": run_scheme(seed, "baseline", protocol, duration_s=duration),
    }
