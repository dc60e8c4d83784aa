"""Packet queues inside the AP (paper Figure 7).

A WGTT AP buffers packets in several places: the Click-level cyclic
queue (in :mod:`repro.core.cyclic_queue`), the mac80211 software queue,
the driver's transmit queue, and the NIC's internal hardware queue.
The baseline AP has the same stack minus the cyclic queue. Backlog in
these queues is exactly what makes naive switching slow — the paper
measures 1,600–2,000 backlogged packets at 50–90 Mbit/s offered load —
so the queue model matters to the headline result.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from typing import Deque, Optional

from repro.net.packet import Packet


@dataclass
class QueueStats:
    """Occupancy and drop accounting for one queue."""

    enqueued: int = 0
    dequeued: int = 0
    dropped: int = 0
    flushed: int = 0
    high_watermark: int = 0


class DropTailQueue:
    """Bounded FIFO with drop-tail semantics.

    ``capacity`` is in packets; the NIC hardware queue and the mac80211
    queue are both packet-limited on the paper's TP-Link hardware.
    """

    def __init__(self, capacity: int, name: str = ""):
        if capacity <= 0:
            raise ValueError("queue capacity must be positive")
        self.capacity = int(capacity)
        self.name = name
        self._items: Deque[Packet] = deque()
        self.stats = QueueStats()

    def __len__(self) -> int:
        return len(self._items)

    @property
    def full(self) -> bool:
        return len(self._items) >= self.capacity

    @property
    def empty(self) -> bool:
        return not self._items

    def enqueue(self, packet: Packet) -> bool:
        """Append; returns False (and counts a drop) when full."""
        if self.full:
            self.stats.dropped += 1
            return False
        self._items.append(packet)
        self.stats.enqueued += 1
        if len(self._items) > self.stats.high_watermark:
            self.stats.high_watermark = len(self._items)
        return True

    def dequeue(self) -> Optional[Packet]:
        """Pop the head, or None when empty."""
        if not self._items:
            return None
        self.stats.dequeued += 1
        return self._items.popleft()

    def peek(self) -> Optional[Packet]:
        return self._items[0] if self._items else None

    def flush(self) -> int:
        """Discard everything; returns how many packets went."""
        count = len(self._items)
        self._items.clear()
        self.stats.flushed += count
        return count

    def drain(self) -> list:
        """Remove and return everything, preserving order."""
        items = list(self._items)
        self._items.clear()
        self.stats.flushed += len(items)
        return items
