"""Block-acknowledgement state machines (802.11e/n).

The sender side keeps a *scoreboard*: which MPDU sequence numbers are
in flight, which need retransmission, and where the 64-frame window
starts. The receiver side keeps a *reorder buffer* that releases
packets to the network layer in sequence order and answers each
aggregate with the compressed-bitmap acknowledgement set.

Everything here is per (transmitter, peer) — under WGTT the peer is
the shared BSSID, so a client's scoreboard survives AP switches, which
is exactly why the incoming AP must learn the outgoing AP's queue
position (the start(c, k) message) rather than restart from scratch.
"""

from __future__ import annotations

from collections import OrderedDict
from typing import Dict, Iterable, List, Set, Tuple

from repro.mac.frames import (
    BA_WINDOW,
    MPDU_RETRY_LIMIT,
    SEQ_MODULO,
    Mpdu,
    seq_distance,
)
from repro.net.packet import Packet

#: Sequence distance either side of the reorder point that the
#: received history keeps once it is trimmed.
HISTORY_KEEP_WINDOW = 4 * BA_WINDOW

class BlockAckScoreboard:
    """Sender-side transmit window for one peer."""

    def __init__(self, retry_limit: int = MPDU_RETRY_LIMIT):
        self._retry_limit = retry_limit
        self._next_seq = 0
        self._window_start = 0
        #: seq -> Mpdu awaiting acknowledgement (insertion = seq order).
        self._outstanding: "OrderedDict[int, Mpdu]" = OrderedDict()
        #: MPDUs that must be retransmitted, oldest first.
        self._retransmit: "OrderedDict[int, Mpdu]" = OrderedDict()
        self.delivered = 0
        self.dropped = 0
        self.retransmissions = 0

    # -- window bookkeeping -------------------------------------------

    @property
    def window_start(self) -> int:
        return self._window_start

    @property
    def next_seq(self) -> int:
        """The next fresh sequence number (inspection for tests)."""
        return self._next_seq

    def in_flight(self) -> int:
        """MPDUs sent or queued for retransmission, not yet acked
        (inspection for tests)."""
        return len(self._outstanding) + len(self._retransmit)

    @property
    def has_retransmits(self) -> bool:
        return bool(self._retransmit)

    def window_room(self) -> int:
        """How many *new* sequence numbers may be issued right now."""
        used = seq_distance(self._window_start, self._next_seq)
        return max(0, BA_WINDOW - used)

    def reset_to(self, seq: int) -> None:
        """Fast-forward this scoreboard to continue another AP's
        sequence space (WGTT's shared block-ACK state: the start(c, k)
        index is both the cyclic-queue slot and the MAC sequence
        number, so the incoming AP picks up numbering exactly where the
        outgoing AP stopped and the client's reorder/BA state stays
        valid across the switch)."""
        self._outstanding.clear()
        self._retransmit.clear()
        self._window_start = seq % SEQ_MODULO
        self._next_seq = seq % SEQ_MODULO

    def issue(self, packet: Packet) -> Mpdu:
        """Assign the next sequence number to a fresh packet."""
        if self.window_room() == 0:
            raise RuntimeError("block-ack window full")
        mpdu = Mpdu(seq=self._next_seq, packet=packet)
        self._next_seq = (self._next_seq + 1) % SEQ_MODULO
        return mpdu

    def take_retransmits(self, limit: int) -> List[Mpdu]:
        """Pop up to ``limit`` MPDUs awaiting retransmission."""
        taken: List[Mpdu] = []
        while self._retransmit and len(taken) < limit:
            _seq, mpdu = self._retransmit.popitem(last=False)
            taken.append(mpdu)
        return taken

    def record_transmit(self, mpdus: Iterable[Mpdu]) -> None:
        """Mark MPDUs as on the air, awaiting a block ACK."""
        for mpdu in mpdus:
            self._outstanding[mpdu.seq] = mpdu
        # Keep insertion ordered by sequence distance from window start.
        self._outstanding = OrderedDict(
            sorted(
                self._outstanding.items(),
                key=lambda kv: seq_distance(self._window_start, kv[0]),
            )
        )

    # -- acknowledgement processing -----------------------------------

    def process_block_ack(
        self, acked: Set[int]
    ) -> Tuple[List[Packet], List[Packet]]:
        """Apply a (possibly forwarded) block ACK.

        Returns ``(delivered_packets, dropped_packets)``. Unacked MPDUs
        go to the retransmit list until their retry limit, after which
        they are dropped and the window advances past them.
        """
        delivered: List[Packet] = []
        dropped: List[Packet] = []
        for seq in list(self._outstanding):
            mpdu = self._outstanding[seq]
            if seq in acked:
                del self._outstanding[seq]
                self._retransmit.pop(seq, None)
                self.delivered += 1
                delivered.append(mpdu.packet)
            else:
                mpdu.retries += 1
                if mpdu.retries > self._retry_limit:
                    del self._outstanding[seq]
                    self._retransmit.pop(seq, None)
                    self.dropped += 1
                    dropped.append(mpdu.packet)
                else:
                    del self._outstanding[seq]
                    self._retransmit[seq] = mpdu
                    self.retransmissions += 1
        # A forwarded BA may also cover seqs already in the retransmit
        # list from an earlier timeout: cancel those retransmissions.
        for seq in list(self._retransmit):
            if seq in acked:
                mpdu = self._retransmit.pop(seq)
                self.delivered += 1
                delivered.append(mpdu.packet)
        self._advance_window()
        return delivered, dropped

    def abandon_all(self) -> int:
        """Give up every pending MPDU (end of a bounded drain window).

        The window advances to next_seq so the sequence space stays
        clean; returns how many MPDUs were abandoned.
        """
        count = len(self._outstanding) + len(self._retransmit)
        self.dropped += count
        self._outstanding.clear()
        self._retransmit.clear()
        self._window_start = self._next_seq
        return count

    def apply_external_ack(self, acked: Set[int]) -> List[Packet]:
        """Positively acknowledge seqs learned out of band (a forwarded
        block ACK). Never penalizes unacked seqs — the forwarded bitmap
        describes a different AP's exchange, so absence means nothing.
        """
        delivered: List[Packet] = []
        for seq in list(self._outstanding):
            if seq in acked:
                mpdu = self._outstanding.pop(seq)
                self.delivered += 1
                delivered.append(mpdu.packet)
        for seq in list(self._retransmit):
            if seq in acked:
                mpdu = self._retransmit.pop(seq)
                self.delivered += 1
                delivered.append(mpdu.packet)
        self._advance_window()
        return delivered

    def process_timeout(self, seqs: Iterable[int]) -> None:
        """No BA arrived for an aggregate: queue every MPDU for retry."""
        for seq in seqs:
            mpdu = self._outstanding.pop(seq, None)
            if mpdu is None:
                continue
            mpdu.retries += 1
            if mpdu.retries > self._retry_limit:
                self.dropped += 1
            else:
                self._retransmit[seq] = mpdu
                self.retransmissions += 1
        self._advance_window()

    def acked_before(self, seqs: Iterable[int]) -> Set[int]:
        """Which of ``seqs`` are no longer outstanding (already acked)."""
        outstanding = set(self._outstanding) | set(self._retransmit)
        return {s for s in seqs if s not in outstanding}

    def _advance_window(self) -> None:
        pending = set(self._outstanding) | set(self._retransmit)
        if not pending:
            self._window_start = self._next_seq
            return
        self._window_start = min(
            pending, key=lambda s: seq_distance(self._window_start, s)
        )


class ReorderBuffer:
    """Receiver-side in-order release of aggregated MPDUs."""

    def __init__(self):
        self._next_expected = 0
        self._buffered: Dict[int, Packet] = {}
        self._received_history: Set[int] = set()
        self.duplicates = 0
        self.delivered = 0

    @property
    def next_expected(self) -> int:
        """The window start (inspection for tests)."""
        return self._next_expected

    def receive(self, seq: int, packet: Packet) -> List[Packet]:
        """Accept one decoded MPDU; return packets releasable in order."""
        behind = seq_distance(seq, self._next_expected)
        if 0 < behind <= SEQ_MODULO // 2:
            # Retransmission of something already delivered.
            self.duplicates += 1
            self._received_history.add(seq)
            return []
        if seq in self._buffered:
            self.duplicates += 1
            return []
        self._buffered[seq] = packet
        self._received_history.add(seq)
        released: List[Packet] = []
        while self._next_expected in self._buffered:
            released.append(self._buffered.pop(self._next_expected))
            self._next_expected = (self._next_expected + 1) % SEQ_MODULO
        self.delivered += len(released)
        return released

    def advance_to(self, window_start: int) -> List[Packet]:
        """Sender moved its window (gave up on a gap): flush up to it."""
        if seq_distance(self._next_expected, window_start) > SEQ_MODULO // 2:
            return []
        released: List[Packet] = []
        # Skip to the new window start, salvaging anything buffered.
        while self._next_expected != window_start:
            packet = self._buffered.pop(self._next_expected, None)
            if packet is not None:
                released.append(packet)
            self._next_expected = (self._next_expected + 1) % SEQ_MODULO
        # Then release the contiguous run from the new start.
        while self._next_expected in self._buffered:
            released.append(self._buffered.pop(self._next_expected))
            self._next_expected = (self._next_expected + 1) % SEQ_MODULO
        self.delivered += len(released)
        return released

    def ack_set(self, seqs: Iterable[int]) -> Set[int]:
        """Bitmap contents for a BA answering an aggregate: every seq of
        the aggregate we have ever received (current or earlier copy)."""
        return {s for s in seqs if s in self._received_history}

    def forget_old_history(self) -> None:
        """Bound the received-history set (called opportunistically)."""
        if len(self._received_history) <= 8 * HISTORY_KEEP_WINDOW:
            return
        cutoff = self._next_expected
        self._received_history = {
            s
            for s in self._received_history
            if seq_distance(s, cutoff) <= HISTORY_KEEP_WINDOW
            or seq_distance(cutoff, s) <= HISTORY_KEEP_WINDOW
        }
