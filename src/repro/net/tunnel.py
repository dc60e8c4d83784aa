"""IP-in-IP tunneling between controller and APs (paper §3.1.3, §3.2.2).

Downlink: the controller cannot rewrite a datagram's addresses (the AP
must still see which *client* it is for), so it wraps the datagram in
an outer IP header addressed to the AP. Uplink: an AP that hears a
client frame wraps it in UDP/IP/802.3 headers addressed to the
controller, with itself as source, so the controller knows *which* AP
overheard each copy.
"""

from __future__ import annotations

from repro.net.packet import Packet

#: Outer IP header for downlink IP-in-IP encapsulation.
DOWNLINK_TUNNEL_OVERHEAD = 20
#: Outer UDP/IP + 802.3 headers for uplink AP→controller forwarding.
UPLINK_TUNNEL_OVERHEAD = 20 + 8 + 14


def tunnel_wire_size(packet: Packet, downlink: bool = True) -> int:
    """Bytes on the backhaul wire for a tunneled datagram.

    The same inner packet object is shared across all APs it is fanned
    out to; only the (tiny) tunnel header differs, and it is accounted
    for here rather than by copying or annotating the packet.
    """
    overhead = DOWNLINK_TUNNEL_OVERHEAD if downlink else UPLINK_TUNNEL_OVERHEAD
    return packet.size_bytes + overhead
