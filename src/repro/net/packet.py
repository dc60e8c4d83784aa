"""The packet object that moves through every layer of the simulation.

One :class:`Packet` instance represents an IP datagram end to end: the
content server creates it, the controller tunnels it to APs, the MAC
wraps it in an MPDU, and the client's transport layer consumes it.
Layers annotate rather than copy, so identity comparisons ("is this the
same packet the other AP already has?") are cheap and exact.
"""

from __future__ import annotations

import itertools
import zlib
from functools import lru_cache
from typing import Optional

#: Bytes of IP header assumed on every datagram.
IP_HEADER_BYTES = 20
#: Bytes of UDP header.
UDP_HEADER_BYTES = 8
#: Bytes of TCP header (no options).
TCP_HEADER_BYTES = 20

_packet_counter = itertools.count(1)


@lru_cache(maxsize=4096)
def src_bits(node_id: str) -> int:
    """The 32 bits standing in for a node's IPv4 source address.

    A CRC of the id, not builtin ``hash()``: that one is salted per
    process, and these bits are serialised (checkpoints, inter-shard
    handoff slices), so "same seed, same bytes" would hold only under a
    pinned ``PYTHONHASHSEED``.  Memoised: it runs once per uplink copy.
    """
    return zlib.crc32(node_id.encode("utf-8"))


class Packet:
    """An IP datagram.

    Attributes
    ----------
    src / dst:
        Node ids of the original endpoints (e.g. ``"server"`` and
        ``"client0"``); tunneling never rewrites these.
    size_bytes:
        Total IP datagram size including headers.
    protocol:
        ``"udp"``, ``"tcp"``, or ``"arp"``.
    flow_id:
        Transport flow this packet belongs to, for demultiplexing.
    seq:
        Transport-layer sequence number (meaning depends on protocol).
    ip_id:
        16-bit IP identification, incremented per source; together with
        the source address this is the controller's de-duplication key.
    created_us:
        Simulation time the packet was created (for latency metrics).
    """

    __slots__ = (
        "uid",
        "src",
        "dst",
        "size_bytes",
        "protocol",
        "flow_id",
        "seq",
        "ip_id",
        "created_us",
        "meta",
    )

    def __init__(
        self,
        src: str,
        dst: str,
        size_bytes: int,
        protocol: str = "udp",
        flow_id: Optional[str] = None,
        seq: int = 0,
        ip_id: int = 0,
        created_us: int = 0,
    ):
        if size_bytes <= 0:
            raise ValueError("packet size must be positive")
        self.uid = next(_packet_counter)
        self.src = src
        self.dst = dst
        self.size_bytes = int(size_bytes)
        self.protocol = protocol
        self.flow_id = flow_id
        self.seq = int(seq)
        self.ip_id = int(ip_id) & 0xFFFF
        self.created_us = int(created_us)
        self.meta: dict = {}

    def dedup_key(self) -> int:
        """48-bit key from source address and IP-ID (paper §3.2.2).

        :func:`src_bits` of the source id stands in for the IPv4 source
        address and is combined with the 16-bit IP identification.
        """
        return (src_bits(self.src) << 16) | self.ip_id

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"Packet(#{self.uid} {self.protocol} {self.src}->{self.dst} "
            f"{self.size_bytes}B seq={self.seq})"
        )


class IpIdAllocator:
    """Per-source 16-bit rolling IP identification counter."""

    def __init__(self):
        self._next = {}

    def allocate(self, src: str) -> int:
        value = self._next.get(src, 0)
        self._next[src] = (value + 1) & 0xFFFF
        return value
