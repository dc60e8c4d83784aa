"""Bulk-transfer workloads: the iperf3-style flows of §5.2.

:class:`Drive` is the common "drive past the array with a saturating
flow" experiment: a testbed plus a started downlink flow per client,
answering the measurements every evaluation figure needs (throughput,
timeseries, switch counts).  It is the one place that knows a TCP flow
from a UDP one, or a controller's switch history from a roaming
agent's log; all the end-to-end drivers build on it.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, List, Optional, Sequence, Tuple

from repro.scenarios.testbed import Testbed, TestbedConfig
from repro.sim.engine import SECOND


class Drive:
    """A testbed with a started downlink ``protocol`` flow per client.

    ``clients`` picks the client indices that get a flow (default: all
    of them).  ``senders`` / ``receivers`` hold each flow's two ends —
    TCP sender / receiver or UDP source / sink — in that order.
    """

    def __init__(
        self,
        config: TestbedConfig,
        protocol: str = "tcp",
        udp_rate_bps: float = 50e6,
        clients: Optional[Sequence[int]] = None,
    ):
        if protocol not in ("tcp", "udp"):
            raise ValueError(f"unknown protocol {protocol!r}")
        self.protocol = protocol
        self.testbed = Testbed(config)
        if clients is None:
            clients = range(len(self.testbed.clients))
        self.clients = list(clients)
        self.duration_s = 0.0
        self.senders: List[Any] = []
        self.receivers: List[Any] = []
        for index in self.clients:
            flow: Tuple[Any, Any] = (
                self.testbed.add_downlink_tcp_flow(index)
                if protocol == "tcp"
                else self.testbed.add_downlink_udp_flow(
                    index, rate_bps=udp_rate_bps
                )
            )
            flow[0].start()
            self.senders.append(flow[0])
            self.receivers.append(flow[1])

    def run(self, duration_s: Optional[float] = None) -> None:
        """Advance the drive; by default for the first client's transit
        across the modelled road (capped at 40 s so very slow drives
        stay tractable)."""
        if duration_s is None:
            try:
                duration_s = min(
                    self.testbed.transit_duration_us(self.clients[0]) / SECOND,
                    40.0,
                )
            except ValueError:  # static client
                duration_s = 10.0
        self.testbed.run_seconds(duration_s)
        self.duration_s += duration_s

    def throughput_mbps(self) -> float:
        """Mean per-client throughput over the drive so far."""
        now = self.testbed.sim.now
        if self.protocol == "tcp":
            values = [sender.throughput_mbps(now) for sender in self.senders]
        else:
            values = [
                sink.bytes_received() * 8 / self.duration_s / 1e6
                for sink in self.receivers
            ]
        return sum(values) / len(values)

    def series_mbps(self, bin_us: int = SECOND) -> List[float]:
        """The first client's per-bin goodput."""
        receiver, now = self.receivers[0], self.testbed.sim.now
        if self.protocol == "tcp":
            return receiver.goodput_series_mbps(now, bin_us=bin_us)
        return receiver.throughput_series_mbps(now, bin_us=bin_us)

    def tcp_timeout_log(self) -> List[int]:
        """When (µs) the first client's sender hit an RTO; none on UDP."""
        return self.senders[0].timeout_log if self.protocol == "tcp" else []

    def switch_count(self) -> int:
        """Switches the controller(s) ran, or — under the baseline —
        the first client's re-associations."""
        if self.testbed.shards:
            return sum(
                len(shard.controller.coordinator.history)
                for shard in self.testbed.shards
            )
        agent = self.testbed.clients[self.clients[0]].agent
        return max(0, len(agent.association_log) - 1)


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
    keep_testbed: bool = False,
) -> BulkResult:
    """Drive the first client past the array with a saturating downlink
    flow (``duration_s`` defaults as :meth:`Drive.run` does)."""
    drive = Drive(config, protocol, udp_rate_bps, clients=[0])
    drive.run(duration_s)
    return BulkResult(
        scheme=config.scheme,
        protocol=protocol,
        speed_mph=drive.testbed.clients[0].track.speed_mph,
        duration_s=drive.duration_s,
        throughput_mbps=drive.throughput_mbps(),
        goodput_series_mbps=drive.series_mbps(),
        tcp_timeouts=len(drive.tcp_timeout_log()),
        switch_count=drive.switch_count(),
        testbed=drive.testbed if keep_testbed else None,
    )
