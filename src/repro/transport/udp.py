"""UDP flows: constant-bit-rate source and measuring sink.

The paper's UDP experiments are iperf3-style CBR streams (50–90 Mbit/s
offered load in the microbenchmarks, 15 Mbit/s in the multi-client
cases). The sink records every arrival so the analysis layer can build
received-sequence-number plots (Figure 4), throughput timeseries
(Figure 15), and loss-rate timeseries (Figure 18).
"""

from __future__ import annotations

from typing import Callable, List, Tuple

from repro.net.packet import Packet
from repro.sim.engine import SECOND, Simulator, Timer

#: UDP datagram size: iperf3's 1470-byte payload + headers.
UDP_PACKET_BYTES = 1498


class UdpSource:
    """Constant-rate datagram generator."""

    def __init__(
        self,
        sim: Simulator,
        src: str,
        dst: str,
        rate_bps: float,
        send_fn: Callable[[Packet], None],
        flow_id: str = "udp",
    ):
        if rate_bps <= 0:
            raise ValueError("rate must be positive")
        self._sim = sim
        self.src = src
        self.dst = dst
        self.flow_id = flow_id
        self.rate_bps = rate_bps
        self._send_fn = send_fn
        self._interval_us = max(1, int(UDP_PACKET_BYTES * 8 / rate_bps * SECOND))
        self._next_seq = 0
        self._timer = Timer(sim, self._emit)
        self._running = False
        self.packets_sent = 0

    def start(self, delay_us: int = 0) -> None:
        self._running = True
        self._timer.start(delay_us)

    def stop(self) -> None:
        self._running = False
        self._timer.stop()

    def _emit(self) -> None:
        if not self._running:
            return
        packet = Packet(
            src=self.src,
            dst=self.dst,
            size_bytes=UDP_PACKET_BYTES,
            protocol="udp",
            flow_id=self.flow_id,
            seq=self._next_seq,
            created_us=self._sim.now,
        )
        self._next_seq += 1
        self.packets_sent += 1
        self._send_fn(packet)
        self._timer.start(self._interval_us)


class UdpSink:
    """Arrival recorder for one UDP flow."""

    def __init__(self, sim: Simulator, flow_id: str = "udp"):
        self._sim = sim
        self.flow_id = flow_id
        #: (arrival_time_us, seq, size_bytes, one_way_delay_us)
        self.arrivals: List[Tuple[int, int, int, int]] = []
        self._seen = set()
        self.duplicates = 0

    def on_packet(self, packet: Packet) -> None:
        if packet.seq in self._seen:
            self.duplicates += 1
            return
        self._seen.add(packet.seq)
        self.arrivals.append(
            (
                self._sim.now,
                packet.seq,
                packet.size_bytes,
                self._sim.now - packet.created_us,
            )
        )

    # -- metrics -------------------------------------------------------

    def packets_received(self) -> int:
        return len(self.arrivals)

    def bytes_received(self) -> int:
        return sum(size for _, _, size, _ in self.arrivals)

    def throughput_bps(self, start_us: int, end_us: int) -> float:
        window = end_us - start_us
        if window <= 0:
            return 0.0
        received = sum(
            size
            for time_us, _, size, _ in self.arrivals
            if start_us <= time_us < end_us
        )
        return received * 8 / (window / SECOND)

    def throughput_series_mbps(
        self, duration_us: int, bin_us: int = SECOND
    ) -> List[float]:
        """Per-bin throughput in Mbit/s over [0, duration_us)."""
        bins = [0.0] * max(1, (duration_us + bin_us - 1) // bin_us)
        for time_us, _, size, _ in self.arrivals:
            index = time_us // bin_us
            if 0 <= index < len(bins):
                bins[index] += size * 8
        return [b / (bin_us / SECOND) / 1e6 for b in bins]
