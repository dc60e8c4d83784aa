"""The per-client cyclic queue (paper §3.1.2, Figure 7).

The controller fans every downlink packet out to all APs near the
client, tagged with an m-bit index (m = 12) that increments per packet
per client. Each AP stores the packet at that index in a cyclic buffer.
Only the serving AP drains its buffer to the radio; when duty moves to
another AP, a single index k in the start(c, k) message tells the new
AP exactly where to resume — its buffer already holds the backlog, so
nothing is re-sent over the backhaul.

Like any ring buffer, the reader must never pass the writer: the 12-bit
index space wraps every 4096 packets, so a slot "ahead of" the most
recent write holds a stale previous-lap packet, not future data. The
queue tracks its *write edge* and refuses to pop or count anything at
or beyond it — that is exactly the uniqueness guarantee the paper's
m = 12 choice provides on real hardware.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Tuple

from repro.net.packet import Packet


class CyclicQueue:
    """One client's cyclic packet buffer at one AP."""

    def __init__(self, size: int = 4096):
        if size <= 0 or size & (size - 1):
            raise ValueError("cyclic queue size must be a power of two")
        self.size = size
        self._slots: Dict[int, Packet] = {}
        self._head = 0
        #: One past the most recently written index — the write edge.
        self._edge = 0
        self._started = False
        self.overwrites = 0
        self.stale_dropped = 0
        #: Largest head→edge pending span ever reached — the occupancy
        #: ceiling the soak SLO guard watches through the metrics
        #: collectors (a span that keeps growing means the reader has
        #: fallen behind the writer).
        self.high_watermark = 0
        #: Undelivered (pending) slots that were overwritten because the
        #: writer lapped the reader — real data loss, accounted here so
        #: it is never silent.  Stale previous-lap overwrites (the
        #: benign case at non-serving APs) stay in ``overwrites`` only.
        self.overflow_drops = 0

    @property
    def head(self) -> int:
        """Index of the next packet to hand to the lower stack."""
        return self._head

    @property
    def write_edge(self) -> int:
        """One past the newest index written (reader must stop here)."""
        return self._edge

    def _distance(self, from_index: int, to_index: int) -> int:
        return (to_index - from_index) % self.size

    def _pending_span(self) -> int:
        """How many index positions lie between head and write edge.

        A span of zero normally means empty; when the buffer is exactly
        full (writer lapped to the reader) the head slot is occupied
        and the whole ring is pending.
        """
        span = self._distance(self._head, self._edge)
        if span == 0 and self._head in self._slots:
            return self.size
        return span

    def insert(self, index: int, packet: Packet) -> None:
        """Store a packet at its controller-assigned index.

        Overwriting an occupied slot is legal — the 12-bit index space
        wraps — but overwriting a slot the reader has *not yet served*
        (inside the head→edge span) destroys undelivered data.  That
        case is counted in ``overflow_drops`` so overload is explicit,
        never silent; the controller's admission pacer, when enabled,
        keeps the serving AP's span from getting there.
        """
        index %= self.size
        if index in self._slots:
            if self._distance(self._head, index) < self._pending_span():
                self.overflow_drops += 1
            self.overwrites += 1
        self._slots[index] = packet
        advance = self._distance(self._edge, index)
        if not self._started or advance < self.size // 2:
            self._edge = (index + 1) % self.size
            self._started = True
        span = self._pending_span()
        if span > self.high_watermark:
            self.high_watermark = span

    def pop_head(self) -> Optional[Tuple[int, Packet]]:
        """Take the next buffered packet between head and write edge.

        The head slot can be empty even though later slots are filled:
        this AP was outside the client's fan-out set when those indices
        were distributed. The controller's backhaul port is FIFO, so a
        present later index proves the earlier ones will never arrive —
        skip the gap. Slots at or past the write edge are previous-lap
        leftovers and are never served.
        """
        span = self._pending_span()
        if span == 0:
            return None
        packet = self._slots.pop(self._head, None)
        if packet is not None:
            index = self._head
            self._head = (self._head + 1) % self.size
            return index, packet
        best: Optional[int] = None
        best_distance = span
        for index in self._slots:
            distance = self._distance(self._head, index)
            if distance < best_distance:
                best, best_distance = index, distance
        if best is None:
            return None
        packet = self._slots.pop(best)
        self._head = (best + 1) % self.size
        return best, packet

    def advance_to(self, index: int) -> int:
        """Move the head to ``index`` (a start(c, k) message), dropping
        every slot logically before it. Returns how many were dropped.

        When k lies beyond our write edge (this AP missed the recent
        fan-out entirely), everything held is stale: clear it all and
        wait for fresh data.
        """
        index %= self.size
        if self._distance(self._edge, index) < self.size // 2 or not self._started:
            # k is ahead of anything we hold: nothing here is current.
            dropped = len(self._slots)
            self.stale_dropped += dropped
            self._slots.clear()
            self._head = index
            self._edge = index
            self._started = True
            return dropped
        dropped = 0
        steps = self._distance(self._head, index)
        for offset in range(steps):
            slot = (self._head + offset) % self.size
            if self._slots.pop(slot, None) is not None:
                dropped += 1
        self._head = index
        return dropped

    def backlog(self) -> int:
        """Occupied slots between head and write edge (what a switch
        inherits); previous-lap leftovers do not count."""
        span = self._pending_span()
        return sum(
            1
            for index in self._slots
            if self._distance(self._head, index) < span
        )

    def backlog_packets(self) -> List[Tuple[int, Packet]]:
        """The serveable backlog in index order (for inspection/tests)."""
        span = self._pending_span()
        entries = [
            (self._distance(self._head, index), index, packet)
            for index, packet in self._slots.items()
            if self._distance(self._head, index) < span
        ]
        entries.sort()
        return [(index, packet) for _, index, packet in entries]

    def occupancy(self) -> int:
        """Total occupied slots, including stale pre-head ones."""
        return len(self._slots)

    def clear(self) -> None:
        self._slots.clear()


class IndexAllocator:
    """Controller-side per-client m-bit index assignment."""

    def __init__(self, size: int = 4096):
        self.size = size
        self._next: Dict[str, int] = {}

    def allocate(self, client_id: str) -> int:
        value = self._next.get(client_id, 0)
        self._next[client_id] = (value + 1) % self.size
        return value

    def peek(self, client_id: str) -> int:
        return self._next.get(client_id, 0)

    def forget_client(self, client_id: str) -> None:
        """Free a departed client's cursor.

        Mirrors :meth:`ApSelector.forget_ap`: without this, every
        client that ever received a downlink packet pins a dict entry
        forever — unbounded growth on a transit system serving millions
        of one-ride commuters.
        """
        self._next.pop(client_id, None)

    def tracked_clients(self) -> int:
        """Live cursor count — the memory-bound invariant tests assert."""
        return len(self._next)

    def clients(self) -> List[str]:
        """Clients holding a cursor."""
        return list(self._next)

    def clear(self) -> None:
        self._next.clear()

    def skid(self, amount: int) -> None:
        """Advance every cursor by ``amount`` index positions.

        A promoted standby restores cursors from a checkpoint that may
        be a whole shipping interval stale; the dead primary kept
        allocating past them.  Skipping ahead guarantees no allocated
        index is re-used — the cyclic queues treat the skipped span as
        an ordinary fan-out gap (readers skip gaps by design), so the
        margin costs nothing but index space.
        """
        if amount <= 0:
            return
        self._next = {
            client: (value + amount) % self.size
            for client, value in self._next.items()
        }

    def fast_forward(self, client_id: str, edge: int) -> bool:
        """Advance one cursor to ``edge`` if that is forward progress.

        ``edge`` is an AP's cyclic-queue write edge (one past the
        newest index it holds) from an ``edge-report``.  Moves the
        cursor only if the edge is *ahead* within half the ring —
        behind-or-equal reports (from APs that missed recent fan-outs)
        and wrapped ancient values are ignored, so replayed or
        reordered reports can never move a cursor backwards.  A client
        without one (a cold restart lost them) takes any edge: from 0 it
        could land a lap behind the readers.
        """
        edge %= self.size
        current = self._next.get(client_id)
        if current is None:
            moved = edge > 0
        else:
            moved = 0 < (edge - current) % self.size < self.size // 2
        if moved:
            self._next[client_id] = edge
        return moved

    def set_cursor(self, client_id: str, value: int) -> None:
        """Install one client's cursor verbatim, from a restored or
        handed-off client record: the client's index stream continues
        where it stopped, so the index space never aliases."""
        self._next[client_id] = int(value) % self.size
