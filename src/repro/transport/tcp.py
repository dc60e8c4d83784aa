"""TCP Reno over the simulated network.

A faithful-enough Reno for the paper's experiments: slow start,
congestion avoidance, triple-duplicate fast retransmit with window
inflation, RTO with exponential backoff, and Karn-compliant RTT
sampling. Segments are counted in whole MSS units — WGTT's experiments
are bulk or streaming transfers, so sub-segment byte accounting adds
nothing but bookkeeping.

TCP timeouts are load-bearing for the reproduction: the baseline's
stalled handovers blow straight through the RTO (paper Figure 14, "TCP
timeout at ~5.86 s"), while WGTT's millisecond switching keeps the ACK
clock ticking.
"""

from __future__ import annotations

from typing import Callable, List, Optional, Set, Tuple

from repro.net.packet import Packet
from repro.sim.engine import SECOND, Simulator, Timer

#: Maximum segment size (payload bytes per segment).
MSS = 1448
#: Wire size of a data segment (MSS + TCP/IP headers).
SEGMENT_BYTES = MSS + 52
#: Wire size of a pure ACK.
ACK_BYTES = 52
#: Initial window (RFC 6928).
INITIAL_CWND = 10.0
#: RTO bounds (Linux-like 200 ms floor).
MIN_RTO_US = 200_000
MAX_RTO_US = 60 * SECOND
INITIAL_RTO_US = SECOND
#: Receive window in segments (the paper's laptops auto-tune large).
RECEIVE_WINDOW = 512


class TcpSender:
    """Reno sender for one unidirectional flow."""

    def __init__(
        self,
        sim: Simulator,
        src: str,
        dst: str,
        send_fn: Callable[[Packet], None],
        flow_id: str = "tcp",
        bulk: bool = True,
    ):
        self._sim = sim
        self.src = src
        self.dst = dst
        self.flow_id = flow_id
        self._send_fn = send_fn
        #: Bulk flows always have data; app-limited flows use supply().
        self._bulk = bulk
        self._supplied_segments = 0

        self.snd_una = 0
        self.snd_nxt = 0
        self.cwnd = INITIAL_CWND
        self.ssthresh = float(RECEIVE_WINDOW)
        self._dup_acks = 0
        self._recover = 0
        self._in_recovery = False

        self._srtt_us: Optional[float] = None
        self._rttvar_us = 0.0
        self.rto_us = INITIAL_RTO_US
        self._timed_seq: Optional[int] = None
        self._timed_at = 0
        self._rto_timer = Timer(sim, self._on_rto)
        #: Go-back-N state after an RTO: segments below this mark are
        #: presumed lost and are retransmitted under slow start as ACKs
        #: advance (classic Reno-without-SACK timeout recovery).
        self._rto_recover_mark = 0
        self._rto_retx_high = 0

        self.segments_sent = 0
        self.retransmits = 0
        self.timeouts = 0
        self.timeout_log: List[int] = []

    # -- app interface --------------------------------------------------

    def start(self) -> None:
        self._try_send()

    def supply(self, num_segments: int) -> None:
        """Make more application data available (app-limited flows)."""
        self._supplied_segments += num_segments
        self._try_send()

    def acked_bytes(self) -> int:
        return self.snd_una * MSS

    def throughput_mbps(self, duration_us: int) -> float:
        if duration_us <= 0:
            return 0.0
        return self.acked_bytes() * 8 / (duration_us / SECOND) / 1e6

    # -- segment emission ------------------------------------------------

    def _available(self) -> int:
        if self._bulk:
            return 1 << 30
        return max(0, self._supplied_segments - self.snd_nxt)

    def _window_limit(self) -> int:
        return self.snd_una + int(min(self.cwnd, RECEIVE_WINDOW))

    def _try_send(self) -> None:
        while self.snd_nxt < self._window_limit() and self._available() > 0:
            self._emit(self.snd_nxt)
            self.snd_nxt += 1
        if not self._rto_timer.armed and self.snd_nxt > self.snd_una:
            self._rto_timer.start(self.rto_us)

    def _emit(self, seq: int, retransmission: bool = False) -> None:
        packet = Packet(
            src=self.src,
            dst=self.dst,
            size_bytes=SEGMENT_BYTES,
            protocol="tcp",
            flow_id=self.flow_id,
            seq=seq,
            created_us=self._sim.now,
        )
        packet.meta["kind"] = "data"
        self.segments_sent += 1
        if retransmission:
            self.retransmits += 1
            # Karn: never time a retransmitted segment.
            if self._timed_seq == seq:
                self._timed_seq = None
        elif self._timed_seq is None:
            self._timed_seq = seq
            self._timed_at = self._sim.now
        self._send_fn(packet)

    # -- ACK processing ---------------------------------------------------

    def on_ack(self, packet: Packet) -> None:
        ack = packet.meta.get("ack", packet.seq)
        if ack > self.snd_una:
            self._on_new_ack(ack)
        elif ack == self.snd_una and self.snd_nxt > self.snd_una:
            self._on_dup_ack()
        self._try_send()

    def _on_new_ack(self, ack: int) -> None:
        newly = ack - self.snd_una
        self.snd_una = ack
        if self._timed_seq is not None and ack > self._timed_seq:
            self._sample_rtt(self._sim.now - self._timed_at)
            self._timed_seq = None
        if newly > 0:
            # Forward progress undoes exponential RTO backoff (as Linux
            # does): the path is alive again.
            self._reset_rto_from_estimator()
        if self._in_recovery:
            if ack >= self._recover:
                self._in_recovery = False
                self.cwnd = self.ssthresh
                self._dup_acks = 0
            else:
                # Partial ACK: retransmit the next hole, deflate.
                self._emit(self.snd_una, retransmission=True)
                self.cwnd = max(self.cwnd - newly + 1, 1.0)
        else:
            self._dup_acks = 0
            if self.cwnd < self.ssthresh:
                self.cwnd += newly  # slow start
            else:
                self.cwnd += newly / self.cwnd  # congestion avoidance
        # Go-back-N after a timeout: everything between the ACK and the
        # recovery mark was in flight when the path died; retransmit it
        # under the growing window rather than one segment per RTO.
        if self.snd_una < self._rto_recover_mark:
            self._rto_retx_high = max(self._rto_retx_high, self.snd_una)
            limit = min(
                self.snd_una + int(self.cwnd), self._rto_recover_mark
            )
            while self._rto_retx_high < limit:
                self._emit(self._rto_retx_high, retransmission=True)
                self._rto_retx_high += 1
        if self.snd_nxt == self.snd_una:
            self._rto_timer.stop()
        else:
            self._rto_timer.start(self.rto_us)

    def _on_dup_ack(self) -> None:
        self._dup_acks += 1
        if self._in_recovery:
            self.cwnd += 1.0  # window inflation per extra dup
        elif self._dup_acks == 3:
            flight = self.snd_nxt - self.snd_una
            self.ssthresh = max(flight / 2.0, 2.0)
            self.cwnd = self.ssthresh + 3.0
            self._in_recovery = True
            self._recover = self.snd_nxt
            self._emit(self.snd_una, retransmission=True)

    def _on_rto(self) -> None:
        if self.snd_nxt == self.snd_una:
            return
        self.timeouts += 1
        self.timeout_log.append(self._sim.now)
        flight = self.snd_nxt - self.snd_una
        self.ssthresh = max(flight / 2.0, 2.0)
        self.cwnd = 1.0
        self._dup_acks = 0
        self._in_recovery = False
        self.rto_us = min(self.rto_us * 2, MAX_RTO_US)
        self._timed_seq = None
        self._rto_recover_mark = self.snd_nxt
        self._rto_retx_high = self.snd_una + 1
        self._emit(self.snd_una, retransmission=True)
        self._rto_timer.start(self.rto_us)

    def _reset_rto_from_estimator(self) -> None:
        if self._srtt_us is None:
            self.rto_us = INITIAL_RTO_US
            return
        self.rto_us = int(
            min(
                max(self._srtt_us + 4 * self._rttvar_us, MIN_RTO_US),
                MAX_RTO_US,
            )
        )

    def _sample_rtt(self, rtt_us: int) -> None:
        if self._srtt_us is None:
            self._srtt_us = float(rtt_us)
            self._rttvar_us = rtt_us / 2.0
        else:
            delta = abs(self._srtt_us - rtt_us)
            self._rttvar_us = 0.75 * self._rttvar_us + 0.25 * delta
            self._srtt_us = 0.875 * self._srtt_us + 0.125 * rtt_us
        self.rto_us = int(
            min(max(self._srtt_us + 4 * self._rttvar_us, MIN_RTO_US), MAX_RTO_US)
        )

    @property
    def srtt_us(self) -> Optional[float]:
        """The smoothed RTT, None before the first sample (inspection for tests)."""
        return self._srtt_us


class TcpReceiver:
    """Cumulative-ACK receiver for one flow."""

    def __init__(
        self,
        sim: Simulator,
        src: str,
        dst: str,
        send_fn: Callable[[Packet], None],
        flow_id: str = "tcp",
    ):
        self._sim = sim
        self.src = src  # this endpoint (the ACK sender)
        self.dst = dst  # the data sender
        self.flow_id = flow_id
        self._send_fn = send_fn
        self.rcv_nxt = 0
        self._out_of_order: Set[int] = set()
        self.duplicates = 0
        #: (arrival_time_us, cumulative_segments) for goodput series.
        self.delivery_log: List[Tuple[int, int]] = []
        self.on_deliver: Callable[[int], None] = lambda segments: None

    def on_packet(self, packet: Packet) -> None:
        seq = packet.seq
        if seq < self.rcv_nxt or seq in self._out_of_order:
            self.duplicates += 1
        else:
            self._out_of_order.add(seq)
            advanced = 0
            while self.rcv_nxt in self._out_of_order:
                self._out_of_order.discard(self.rcv_nxt)
                self.rcv_nxt += 1
                advanced += 1
            if advanced:
                self.delivery_log.append((self._sim.now, self.rcv_nxt))
                self.on_deliver(advanced)
        self._send_ack()

    def _send_ack(self) -> None:
        ack = Packet(
            src=self.src,
            dst=self.dst,
            size_bytes=ACK_BYTES,
            protocol="tcp",
            flow_id=self.flow_id,
            seq=self.rcv_nxt,
            created_us=self._sim.now,
        )
        ack.meta["kind"] = "ack"
        ack.meta["ack"] = self.rcv_nxt
        self._send_fn(ack)

    def delivered_bytes(self) -> int:
        """Bytes delivered in order (inspection for tests)."""
        return self.rcv_nxt * MSS

    def goodput_series_mbps(
        self, duration_us: int, bin_us: int = SECOND
    ) -> List[float]:
        """Per-bin application goodput in Mbit/s."""
        bins = [0.0] * max(1, (duration_us + bin_us - 1) // bin_us)
        last = 0
        for time_us, cumulative in self.delivery_log:
            index = time_us // bin_us
            if 0 <= index < len(bins):
                bins[index] += (cumulative - last) * MSS * 8
            last = cumulative
        return [b / (bin_us / SECOND) / 1e6 for b in bins]
