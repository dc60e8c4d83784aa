"""Wired networking substrate: packets, backhaul, tunnels, queues."""

from repro.net.backhaul import (
    CONTROL_LATENCY_US,
    DEFAULT_LATENCY_US,
    BackhaulStats,
    EthernetBackhaul,
)
from repro.net.packet import (
    IP_HEADER_BYTES,
    TCP_HEADER_BYTES,
    UDP_HEADER_BYTES,
    IpIdAllocator,
    Packet,
)
from repro.net.queues import DropTailQueue, QueueStats
from repro.net.tunnel import (
    DOWNLINK_TUNNEL_OVERHEAD,
    UPLINK_TUNNEL_OVERHEAD,
    tunnel_wire_size,
)

__all__ = [
    "CONTROL_LATENCY_US",
    "DEFAULT_LATENCY_US",
    "BackhaulStats",
    "EthernetBackhaul",
    "IP_HEADER_BYTES",
    "TCP_HEADER_BYTES",
    "UDP_HEADER_BYTES",
    "IpIdAllocator",
    "Packet",
    "DropTailQueue",
    "QueueStats",
    "DOWNLINK_TUNNEL_OVERHEAD",
    "UPLINK_TUNNEL_OVERHEAD",
    "tunnel_wire_size",
]
