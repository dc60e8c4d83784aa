"""Tests for packets, queues, tunneling, and the backhaul."""

import pytest

from repro.net import (
    DropTailQueue,
    EthernetBackhaul,
    IpIdAllocator,
    Packet,
    tunnel_wire_size,
)
from repro.sim import Simulator


def make_packet(seq=0, src="server", dst="client0", size=1500):
    return Packet(src=src, dst=dst, size_bytes=size, seq=seq)


# ----------------------------------------------------------------------
# packets
# ----------------------------------------------------------------------

class TestPacket:
    def test_uids_unique(self):
        assert make_packet().uid != make_packet().uid

    def test_rejects_nonpositive_size(self):
        with pytest.raises(ValueError):
            Packet("a", "b", 0)

    def test_dedup_key_same_for_same_identity(self):
        a = Packet("client0", "server", 100, ip_id=7)
        b = Packet("client0", "server", 100, ip_id=7)
        assert a.dedup_key() == b.dedup_key()

    def test_dedup_key_differs_by_ip_id(self):
        a = Packet("client0", "server", 100, ip_id=7)
        b = Packet("client0", "server", 100, ip_id=8)
        assert a.dedup_key() != b.dedup_key()

    def test_dedup_key_differs_by_source(self):
        a = Packet("client0", "server", 100, ip_id=7)
        b = Packet("client1", "server", 100, ip_id=7)
        assert a.dedup_key() != b.dedup_key()

    def test_dedup_key_is_48_bits(self):
        packet = Packet("client0", "server", 100, ip_id=0xFFFF)
        assert 0 <= packet.dedup_key() < (1 << 48)

    def test_ip_id_wraps_16_bits(self):
        allocator = IpIdAllocator()
        for _ in range(65536):
            allocator.allocate("x")
        assert allocator.allocate("x") == 0

    def test_ip_id_per_source(self):
        allocator = IpIdAllocator()
        assert allocator.allocate("a") == 0
        assert allocator.allocate("a") == 1
        assert allocator.allocate("b") == 0


# ----------------------------------------------------------------------
# queues
# ----------------------------------------------------------------------

class TestDropTailQueue:
    def test_fifo_order(self):
        queue = DropTailQueue(4)
        for i in range(3):
            queue.enqueue(make_packet(seq=i))
        assert [queue.dequeue().seq for _ in range(3)] == [0, 1, 2]

    def test_drop_when_full(self):
        queue = DropTailQueue(2)
        assert queue.enqueue(make_packet())
        assert queue.enqueue(make_packet())
        assert not queue.enqueue(make_packet())
        assert queue.stats.dropped == 1

    def test_dequeue_empty_returns_none(self):
        assert DropTailQueue(2).dequeue() is None

    def test_peek_does_not_remove(self):
        queue = DropTailQueue(2)
        queue.enqueue(make_packet(seq=9))
        assert queue.peek().seq == 9
        assert len(queue) == 1

    def test_flush_and_drain(self):
        queue = DropTailQueue(8)
        for i in range(5):
            queue.enqueue(make_packet(seq=i))
        drained = queue.drain()
        assert [p.seq for p in drained] == [0, 1, 2, 3, 4]
        assert queue.empty
        queue.enqueue(make_packet())
        assert queue.flush() == 1

    def test_high_watermark(self):
        queue = DropTailQueue(8)
        for i in range(5):
            queue.enqueue(make_packet(seq=i))
        queue.dequeue()
        assert queue.stats.high_watermark == 5

    def test_invalid_capacity(self):
        with pytest.raises(ValueError):
            DropTailQueue(0)


# ----------------------------------------------------------------------
# tunneling
# ----------------------------------------------------------------------

class TestTunnel:
    def test_wire_size_overheads(self):
        packet = make_packet(size=1000)
        assert tunnel_wire_size(packet, downlink=True) == 1020
        assert tunnel_wire_size(packet, downlink=False) == 1042


# ----------------------------------------------------------------------
# backhaul
# ----------------------------------------------------------------------

class TestBackhaul:
    def test_delivers_with_latency(self):
        sim = Simulator()
        backhaul = EthernetBackhaul(sim, latency_us=300)
        got = []
        backhaul.register("ap1", lambda src, kind, p: got.append((sim.now, src, kind, p)))
        backhaul.send("controller", "ap1", "data", "payload", size_bytes=1000)
        sim.run()
        assert len(got) == 1
        time_us, src, kind, payload = got[0]
        assert src == "controller" and kind == "data" and payload == "payload"
        assert time_us >= 300

    def test_control_path_is_faster(self):
        sim = Simulator()
        backhaul = EthernetBackhaul(sim)
        times = {}
        backhaul.register("ap1", lambda s, k, p: times.setdefault(k, sim.now))
        backhaul.send("controller", "ap1", "data", None, size_bytes=1500)
        backhaul.send_control("controller", "ap1", "stop", None)
        sim.run()
        assert times["stop"] < times["data"]

    def test_fifo_serialization_per_port(self):
        sim = Simulator()
        backhaul = EthernetBackhaul(sim, bandwidth_bps=10_000_000)  # slow
        arrivals = []
        backhaul.register("ap1", lambda s, k, p: arrivals.append((sim.now, p)))
        for i in range(3):
            backhaul.send("controller", "ap1", "data", i, size_bytes=12_500)
        sim.run()
        assert [p for _, p in arrivals] == [0, 1, 2]
        # each 12.5 kB message takes 10 ms to serialize at 10 Mbit/s
        assert arrivals[1][0] - arrivals[0][0] >= 9_000

    def test_unknown_destination_raises(self):
        backhaul = EthernetBackhaul(Simulator())
        with pytest.raises(KeyError):
            backhaul.send("a", "nowhere", "data", None)

    def test_duplicate_registration_rejected(self):
        backhaul = EthernetBackhaul(Simulator())
        backhaul.register("x", lambda *a: None)
        with pytest.raises(ValueError):
            backhaul.register("x", lambda *a: None)

    def test_broadcast_excludes_sender(self):
        sim = Simulator()
        backhaul = EthernetBackhaul(sim)
        got = {"a": 0, "b": 0, "c": 0}
        for node in got:
            backhaul.register(node, lambda s, k, p, n=node: got.__setitem__(n, got[n] + 1))
        backhaul.broadcast("a", "sync", None)
        sim.run()
        assert got == {"a": 0, "b": 1, "c": 1}

    def test_stats_accounting(self):
        sim = Simulator()
        backhaul = EthernetBackhaul(sim)
        backhaul.register("ap1", lambda *a: None)
        backhaul.send("c", "ap1", "data", None, size_bytes=100)
        backhaul.send_control("c", "ap1", "stop", None)
        assert backhaul.stats.messages == 2
        assert backhaul.stats.control_messages == 1
        assert backhaul.stats.by_kind == {"data": 1, "stop": 1}
