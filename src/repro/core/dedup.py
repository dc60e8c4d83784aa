"""Uplink packet de-duplication at the controller (paper §3.2.3).

Every AP that decodes a client's uplink frame forwards it, so the
controller sees up to eight copies of each datagram. It keeps a
hash-set of 48-bit keys — source address bits combined with the 16-bit
IP identification field (§3.2.2) — and forwards only the first copy.
The set is bounded FIFO so memory stays constant on long runs.
"""

from __future__ import annotations

from collections import OrderedDict

from repro.net.packet import Packet

#: Remembered keys; at 8k packets/s this covers several seconds.
DEFAULT_CAPACITY = 32_768


class PacketDeduplicator:
    """First-copy-wins filter keyed on (source, IP-ID)."""

    def __init__(self, capacity: int = DEFAULT_CAPACITY):
        if capacity <= 0:
            raise ValueError("capacity must be positive")
        self._capacity = capacity
        self._seen: "OrderedDict[int, None]" = OrderedDict()
        self.accepted = 0
        self.duplicates = 0

    def accept(self, packet: Packet) -> bool:
        """True exactly once per distinct datagram.

        ARP and other headerless traffic (paper footnote 5) bypasses
        de-duplication — duplicates there are harmless.
        """
        if packet.protocol == "arp":
            self.accepted += 1
            return True
        key = packet.dedup_key()
        if key in self._seen:
            self.duplicates += 1
            return False
        self._seen[key] = None
        if len(self._seen) > self._capacity:
            self._seen.popitem(last=False)
        self.accepted += 1
        return True

    def duplicate_ratio(self) -> float:
        total = self.accepted + self.duplicates
        return self.duplicates / total if total else 0.0

    def window_size(self) -> int:
        """Keys currently remembered (≤ capacity by construction) —
        a bounded-memory probe for the soak SLO guard."""
        return len(self._seen)

    @property
    def capacity(self) -> int:
        return self._capacity

    def crash(self) -> None:
        """Controller crash: the key window is volatile; the counters
        are durable observability and stay."""
        self._seen.clear()

    # -- checkpoint support -------------------------------------------

    def snapshot(self) -> dict:
        """FIFO-ordered key list + counters, for controller checkpoints.

        Shipping the window to the warm standby is what bounds
        duplicate leakage across a controller failover: copies of a
        datagram the dead primary already forwarded are recognised by
        the promoted standby instead of re-forwarded upstream.
        """
        return {
            "capacity": self._capacity,
            "keys": list(self._seen),
            "accepted": self.accepted,
            "duplicates": self.duplicates,
        }

    def restore(self, state: dict) -> None:
        self._capacity = int(state["capacity"])
        self._seen = OrderedDict((int(k), None) for k in state["keys"])
        self.accepted = int(state["accepted"])
        self.duplicates = int(state["duplicates"])

    # -- inter-shard handoff support ----------------------------------

    def keys_for_src(self, src_bits: int) -> list:
        """FIFO-ordered remembered keys whose source bits match.

        A dedup key is ``(src_bits << 16) | ip_id``, so this is the
        per-client slice of the window — what an inter-shard handoff
        ships so the receiving shard recognises copies of datagrams the
        sending shard already forwarded upstream.
        """
        return [key for key in self._seen if key >> 16 == src_bits]

    def merge_keys(self, keys: list) -> None:
        """Append transferred keys (FIFO order kept, existing kept,
        capacity enforced)."""
        seen = self._seen
        for key in keys:
            key = int(key)
            if key in seen:
                continue
            seen[key] = None
            if len(seen) > self._capacity:
                seen.popitem(last=False)
