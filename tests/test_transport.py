"""Tests for TCP Reno, UDP flows, and host demultiplexing.

TCP is exercised over a scriptable fake network so loss/reorder/delay
cases are deterministic.
"""

import pytest

from repro.net.packet import Packet
from repro.sim import SECOND, Simulator
from repro.transport import (
    Host,
    MIN_RTO_US,
    MSS,
    TcpReceiver,
    TcpSender,
    UdpSink,
    UdpSource,
)


class FakeNetwork:
    """Bidirectional pipe with programmable loss and delay."""

    def __init__(self, sim, delay_us=5_000):
        self.sim = sim
        self.delay_us = delay_us
        self.drop_data_seqs = set()
        self.drop_all_data = False
        self.drop_acks_below = -1
        self.sender = None
        self.receiver = None
        self.data_sent = []

    def to_receiver(self, packet):
        self.data_sent.append(packet.seq)
        if self.drop_all_data:
            return
        if packet.seq in self.drop_data_seqs:
            self.drop_data_seqs.discard(packet.seq)  # drop once
            return
        self.sim.schedule(self.delay_us, lambda: self.receiver.on_packet(packet))

    def to_sender(self, packet):
        if packet.meta.get("ack", -1) <= self.drop_acks_below:
            return
        self.sim.schedule(self.delay_us, lambda: self.sender.on_ack(packet))


def make_tcp(delay_us=5_000, bulk=True):
    sim = Simulator()
    net = FakeNetwork(sim, delay_us)
    sender = TcpSender(sim, "server", "client", net.to_receiver, bulk=bulk)
    receiver = TcpReceiver(sim, "client", "server", net.to_sender)
    net.sender, net.receiver = sender, receiver
    return sim, net, sender, receiver


class TestTcpBasics:
    def test_clean_transfer_advances(self):
        sim, net, sender, receiver = make_tcp()
        sender.start()
        sim.run(until_us=2 * SECOND)
        assert sender.snd_una > 500
        assert receiver.rcv_nxt == sender.snd_una
        assert sender.timeouts == 0

    def test_slow_start_doubles_window(self):
        sim, net, sender, receiver = make_tcp()
        sender.start()
        initial = sender.cwnd
        sim.run(until_us=60_000)  # a few RTTs at 10 ms RTT
        assert sender.cwnd > 2 * initial

    def test_single_loss_fast_retransmit(self):
        sim, net, sender, receiver = make_tcp()
        net.drop_data_seqs = {20}
        sender.start()
        sim.run(until_us=2 * SECOND)
        assert sender.timeouts == 0  # recovered via triple-dup-ack
        assert sender.retransmits >= 1
        assert receiver.rcv_nxt > 100

    def test_rto_on_total_blackout(self):
        sim, net, sender, receiver = make_tcp()
        sender.start()
        sim.run(until_us=300_000)
        progressed = sender.snd_una
        net.drop_all_data = True  # total blackout from here on
        sim.run(until_us=3 * SECOND)
        assert sender.timeouts >= 2
        assert sender.rto_us > MIN_RTO_US  # exponential backoff engaged
        assert sender.snd_una >= progressed

    def test_go_back_n_recovery_after_rto(self):
        """After a blackout ends, the whole lost window must be
        retransmitted under slow start, not one segment per RTO."""
        sim, net, sender, receiver = make_tcp()
        sender.start()
        sim.run(until_us=300_000)
        # black out 200 consecutive segments (each lost exactly once)
        lost = set(range(sender.snd_nxt, sender.snd_nxt + 200))
        net.drop_data_seqs = set(lost)
        sim.run(until_us=1 * SECOND)
        before = receiver.rcv_nxt
        sim.run(until_us=6 * SECOND)
        # full recovery well within a few RTO rounds
        assert receiver.rcv_nxt > before + 190
        assert receiver.rcv_nxt == sender.snd_una

    def test_rto_backoff_resets_on_progress(self):
        sim, net, sender, receiver = make_tcp()
        sender.start()
        sim.run(until_us=200_000)
        net.drop_all_data = True
        sim.run(until_us=2 * SECOND)
        inflated = sender.rto_us
        assert inflated > MIN_RTO_US
        net.drop_all_data = False
        sim.run(until_us=6 * SECOND)
        assert sender.rto_us < inflated

    def test_rtt_estimator_tracks_path(self):
        sim, net, sender, receiver = make_tcp(delay_us=20_000)
        sender.start()
        sim.run(until_us=2 * SECOND)
        assert sender.srtt_us is not None
        assert 30_000 < sender.srtt_us < 120_000  # ~40 ms RTT

    def test_app_limited_flow_stops_at_supply(self):
        sim, net, sender, receiver = make_tcp(bulk=False)
        sender.supply(25)
        sender.start()
        sim.run(until_us=2 * SECOND)
        assert sender.snd_una == 25
        assert receiver.rcv_nxt == 25
        assert receiver.delivered_bytes() == 25 * MSS

    def test_receiver_handles_reordering(self):
        sim = Simulator()
        out = []
        receiver = TcpReceiver(sim, "c", "s", lambda p: out.append(p.meta["ack"]))
        for seq in (1, 0, 3, 2):
            packet = Packet("s", "c", 1500, protocol="tcp", seq=seq)
            packet.meta["kind"] = "data"
            receiver.on_packet(packet)
        assert receiver.rcv_nxt == 4
        assert out[-1] == 4

    def test_receiver_counts_duplicates(self):
        sim = Simulator()
        receiver = TcpReceiver(sim, "c", "s", lambda p: None)
        for seq in (0, 0, 1, 1):
            packet = Packet("s", "c", 1500, protocol="tcp", seq=seq)
            receiver.on_packet(packet)
        assert receiver.duplicates == 2

    def test_goodput_series(self):
        sim, net, sender, receiver = make_tcp()
        sender.start()
        sim.run(until_us=3 * SECOND)
        series = receiver.goodput_series_mbps(3 * SECOND)
        assert len(series) == 3
        assert series[-1] > 1.0


class TestUdp:
    def test_cbr_packet_rate(self):
        sim = Simulator()
        sent = []
        source = UdpSource(sim, "s", "c", rate_bps=12_000_000,
                           send_fn=sent.append)
        source.start()
        sim.run(until_us=SECOND)
        expected = 12_000_000 / (1498 * 8)
        assert abs(len(sent) - expected) <= expected * 0.05

    def test_rate_must_be_positive(self):
        with pytest.raises(ValueError):
            UdpSource(Simulator(), "s", "c", 0, lambda p: None)

    def test_stop_halts_emission(self):
        sim = Simulator()
        sent = []
        source = UdpSource(sim, "s", "c", 10e6, sent.append)
        source.start()
        sim.run(until_us=100_000)
        count = len(sent)
        source.stop()
        sim.run(until_us=SECOND)
        assert len(sent) == count

    def test_sink_metrics(self):
        sim = Simulator()
        sink = UdpSink(sim)
        for seq in (0, 1, 1, 3):
            sink.on_packet(Packet("s", "c", 1000, seq=seq, created_us=0))
        assert sink.packets_received() == 3
        assert sink.duplicates == 1
        assert sink.bytes_received() == 3000

    def test_sink_throughput_series(self):
        sim = Simulator()
        sink = UdpSink(sim)
        sim.schedule(
            100, lambda: sink.on_packet(Packet("s", "c", 125_000, seq=0))
        )
        sim.run()
        series = sink.throughput_series_mbps(SECOND)
        assert series[0] == pytest.approx(1.0)  # 1 Mbit in 1 s


class TestHost:
    def test_routes_by_protocol_and_flow(self):
        sim = Simulator()
        host = Host("client")
        sink = UdpSink(sim, flow_id="u1")
        host.attach_udp_sink(sink)
        got_acks = []

        class FakeSender:
            flow_id = "t1"

            def on_ack(self, p):
                got_acks.append(p.seq)

        host.attach_tcp_sender(FakeSender())
        udp = Packet("s", "c", 100, protocol="udp", flow_id="u1")
        host.deliver(udp)
        ack = Packet("c", "s", 52, protocol="tcp", flow_id="t1", seq=9)
        ack.meta["kind"] = "ack"
        host.deliver(ack)
        assert sink.packets_received() == 1
        assert got_acks == [9]

    def test_unrouted_counted(self):
        host = Host("client")
        host.deliver(Packet("s", "c", 100, flow_id="nope"))
        assert host.unrouted == 1

    def test_raw_handler_wins(self):
        host = Host("client")
        raw = []
        host.attach_raw("conf", raw.append)
        host.deliver(Packet("s", "c", 100, protocol="udp", flow_id="conf"))
        assert len(raw) == 1
