"""Bulk-transfer workloads: the iperf3-style flows of §5.2.

These helpers wrap testbed + flow construction for the common
"drive past the array with a saturating flow" experiment, returning the
measurements every evaluation figure needs (throughput, timeseries,
switch counts). All the end-to-end benches build on them.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Optional

from repro.scenarios.testbed import Testbed, TestbedConfig
from repro.sim.engine import SECOND


@dataclass
class BulkResult:
    """Outcome of one bulk-transfer drive."""

    scheme: str
    protocol: str
    speed_mph: float
    duration_s: float
    throughput_mbps: float
    goodput_series_mbps: List[float]
    tcp_timeouts: int = 0
    switch_count: int = 0
    testbed: Optional[Testbed] = field(default=None, repr=False)


def run_bulk_download(
    config: TestbedConfig,
    protocol: str = "tcp",
    duration_s: Optional[float] = None,
    udp_rate_bps: float = 50e6,
    client_index: int = 0,
    keep_testbed: bool = False,
) -> BulkResult:
    """Drive one client past the array with a saturating downlink flow.

    ``duration_s`` defaults to the client's transit time across the
    modelled road (capped at 40 s so very slow drives stay tractable).
    """
    testbed = Testbed(config)
    if duration_s is None:
        try:
            duration_s = min(
                testbed.transit_duration_us(client_index) / SECOND, 40.0
            )
        except ValueError:  # static client
            duration_s = 10.0
    if protocol == "tcp":
        sender, receiver = testbed.add_downlink_tcp_flow(client_index)
        sender.start()
        testbed.run_seconds(duration_s)
        throughput = sender.throughput_mbps(testbed.sim.now)
        series = receiver.goodput_series_mbps(testbed.sim.now)
        timeouts = sender.timeouts
    elif protocol == "udp":
        source, sink = testbed.add_downlink_udp_flow(
            client_index, rate_bps=udp_rate_bps
        )
        source.start()
        testbed.run_seconds(duration_s)
        throughput = sink.bytes_received() * 8 / duration_s / 1e6
        series = sink.throughput_series_mbps(testbed.sim.now)
        timeouts = 0
    else:
        raise ValueError(f"unknown protocol {protocol!r}")
    if testbed.shards:
        switch_count = sum(
            len(shard.controller.coordinator.history)
            for shard in testbed.shards
        )
    else:
        agent = testbed.clients[client_index].agent
        switch_count = max(0, len(agent.association_log) - 1)
    return BulkResult(
        scheme=config.scheme,
        protocol=protocol,
        speed_mph=config.client_speeds_mph[client_index]
        if config.client_tracks is None
        else testbed.clients[client_index].track.speed_mph,
        duration_s=duration_s,
        throughput_mbps=throughput,
        goodput_series_mbps=series,
        tcp_timeouts=timeouts,
        switch_count=switch_count,
        testbed=testbed if keep_testbed else None,
    )
