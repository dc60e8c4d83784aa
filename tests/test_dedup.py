"""Tests for uplink de-duplication and the BA-forwarding seen-cache."""

import json
import os
import subprocess
import sys
import zlib
from pathlib import Path

from repro.core.ba_forwarding import BaSeenCache, ForwardedBa
from repro.core.dedup import PacketDeduplicator
from repro.net.packet import Packet, src_bits


def pkt(src="client0", ip_id=0, protocol="udp"):
    return Packet(src, "server", 100, protocol=protocol, ip_id=ip_id)


class TestPacketDeduplicator:
    def test_first_copy_accepted_rest_rejected(self):
        dedup = PacketDeduplicator()
        packet = pkt(ip_id=5)
        assert dedup.accept(packet)
        copy = pkt(ip_id=5)
        assert not dedup.accept(copy)
        assert dedup.duplicates == 1

    def test_distinct_packets_pass(self):
        dedup = PacketDeduplicator()
        assert dedup.accept(pkt(ip_id=1))
        assert dedup.accept(pkt(ip_id=2))
        assert dedup.accept(pkt(src="client1", ip_id=1))

    def test_arp_bypasses(self):
        dedup = PacketDeduplicator()
        assert dedup.accept(pkt(protocol="arp"))
        assert dedup.accept(pkt(protocol="arp"))

    def test_capacity_bounded_fifo_eviction(self):
        dedup = PacketDeduplicator(capacity=4)
        for i in range(5):
            dedup.accept(pkt(ip_id=i))
        # ip_id 0 was evicted; its "duplicate" now passes again.
        assert dedup.accept(pkt(ip_id=0))

    def test_duplicate_ratio(self):
        dedup = PacketDeduplicator()
        dedup.accept(pkt(ip_id=1))
        dedup.accept(pkt(ip_id=1))
        dedup.accept(pkt(ip_id=1))
        assert abs(dedup.duplicate_ratio() - 2 / 3) < 1e-9

    def test_invalid_capacity(self):
        import pytest

        with pytest.raises(ValueError):
            PacketDeduplicator(capacity=0)


class TestPacketDeduplicatorProperties:
    """Randomized model-checking of the bounded-FIFO window.

    A tiny reference model (an ordered key set with FIFO eviction)
    predicts every accept/reject; the real deduplicator must agree on
    arbitrary interleavings of fresh keys, in-window duplicates, and
    post-eviction re-appearances.
    """

    def _model_accept(self, model, key, capacity):
        if key in model:
            return False
        model[key] = None
        if len(model) > capacity:
            model.pop(next(iter(model)))
        return True

    def test_matches_fifo_model_on_random_streams(self):
        import random

        for seed in range(8):
            rng = random.Random(seed)
            capacity = rng.choice([1, 2, 7, 32])
            dedup = PacketDeduplicator(capacity=capacity)
            model = {}
            for _ in range(600):
                src = f"client{rng.randrange(3)}"
                ip_id = rng.randrange(capacity * 3)
                packet = pkt(src=src, ip_id=ip_id)
                expected = self._model_accept(
                    model, packet.dedup_key(), capacity
                )
                assert dedup.accept(packet) is expected
                # The window is bounded at every step, not just at the end.
                assert dedup.window_size() <= capacity
            assert dedup.accepted + dedup.duplicates == 600

    def test_eviction_never_readmits_within_window(self):
        """While a key remains in the FIFO window it is rejected on
        every re-presentation — duplicates never refresh recency."""
        import random

        rng = random.Random(99)
        capacity = 16
        dedup = PacketDeduplicator(capacity=capacity)
        for i in range(capacity):
            assert dedup.accept(pkt(ip_id=i))
        # Hammer in-window keys in random order: all rejected, and the
        # window contents never change (no LRU-style refresh).
        for _ in range(200):
            ip_id = rng.randrange(capacity)
            assert not dedup.accept(pkt(ip_id=ip_id))
        # One fresh key evicts exactly the oldest (ip_id 0), nothing else.
        assert dedup.accept(pkt(ip_id=capacity))
        assert dedup.accept(pkt(ip_id=0))  # evicted: passes again
        # Each insertion evicts exactly the current oldest, so the
        # forgotten keys cascade from the old end (1, then 2, ...)
        # while young keys and fresh re-admissions stay rejected.
        assert dedup.accept(pkt(ip_id=1))  # 0's re-admission evicted it
        assert not dedup.accept(pkt(ip_id=capacity - 1))  # young: in-window
        assert not dedup.accept(pkt(ip_id=0))  # just re-admitted: rejected

    def test_snapshot_restore_roundtrips_random_states(self):
        import random

        for seed in range(6):
            rng = random.Random(1000 + seed)
            capacity = rng.choice([4, 16, 64])
            dedup = PacketDeduplicator(capacity=capacity)
            for _ in range(rng.randrange(1, 150)):
                dedup.accept(
                    pkt(
                        src=f"client{rng.randrange(4)}",
                        ip_id=rng.randrange(64),
                    )
                )
            state = dedup.snapshot()
            clone = PacketDeduplicator()
            clone.restore(state)
            # Identical externally visible state...
            assert clone.snapshot() == state
            assert clone.window_size() == dedup.window_size()
            assert clone.duplicate_ratio() == dedup.duplicate_ratio()
            # ...and identical future behaviour, including eviction order.
            for _ in range(100):
                probe = pkt(
                    src=f"client{rng.randrange(4)}",
                    ip_id=rng.randrange(64),
                )
                clone_copy = pkt(src=probe.src, ip_id=probe.ip_id)
                assert dedup.accept(probe) is clone.accept(clone_copy)
            assert dedup.snapshot() == clone.snapshot()

    def test_duplicate_ratio_at_eviction_boundary(self):
        """Ratio accounting stays exact when a duplicate's key was
        already FIFO-evicted: the copy counts as *accepted* (the window
        genuinely forgot it), not as a duplicate."""
        capacity = 4
        dedup = PacketDeduplicator(capacity=capacity)
        for i in range(capacity):
            dedup.accept(pkt(ip_id=i))
        assert not dedup.accept(pkt(ip_id=0))  # in-window duplicate
        assert dedup.accept(pkt(ip_id=capacity))  # evicts ip_id 0
        assert dedup.accept(pkt(ip_id=0))  # forgotten: re-accepted
        assert dedup.accepted == capacity + 2
        assert dedup.duplicates == 1
        assert abs(
            dedup.duplicate_ratio() - 1 / (capacity + 3)
        ) < 1e-12


class TestBaSeenCache:
    def ba(self, start=0, acked=(1, 2), heard_by="ap2", at=0):
        return ForwardedBa(
            client="client0",
            start_seq=start,
            acked=frozenset(acked),
            heard_by=heard_by,
            heard_at_us=at,
        )

    def test_first_seen_accepted(self):
        cache = BaSeenCache()
        assert cache.check_and_record(self.ba(), now_us=0)

    def test_same_info_rejected_even_from_other_ap(self):
        cache = BaSeenCache()
        assert cache.check_and_record(self.ba(heard_by="ap2"), now_us=0)
        assert not cache.check_and_record(self.ba(heard_by="ap3"), now_us=10)

    def test_locally_received_ba_blocks_forwarded_copy(self):
        cache = BaSeenCache()
        cache.record_local("client0", 0, {1, 2}, now_us=0)
        assert not cache.check_and_record(self.ba(), now_us=100)

    def test_different_bitmap_is_new_information(self):
        cache = BaSeenCache()
        assert cache.check_and_record(self.ba(acked=(1, 2)), now_us=0)
        assert cache.check_and_record(self.ba(acked=(1, 2, 3)), now_us=10)

    def test_entries_expire(self):
        cache = BaSeenCache(horizon_us=1_000)
        assert cache.check_and_record(self.ba(), now_us=0)
        assert cache.check_and_record(self.ba(), now_us=5_000)

    def test_len_tracks_entries(self):
        cache = BaSeenCache()
        cache.check_and_record(self.ba(start=0), now_us=0)
        cache.check_and_record(self.ba(start=64), now_us=0)
        assert len(cache) == 2


class TestDedupKeyAcrossProcesses:
    """"Same seed, same bytes" must not depend on PYTHONHASHSEED: the
    key's source bits ride checkpoints and inter-shard handoff slices."""

    SCENARIO = """
import json
from repro.scenarios.presets import shard_corridor_config
from repro.scenarios.testbed import Testbed

tb = Testbed(shard_corridor_config(
    num_shards=2, num_aps=8, seed=3,
    client_speeds_mph=[35.0], client_start_x_m=30.0,
))
source, sink = tb.add_uplink_udp_flow(0, rate_bps=2e6)
source.start()
tb.run_seconds(1.5)
snapshot = tb.obs.metrics.snapshot()
print(json.dumps({
    "handoffs": snapshot["shard_handoffs_completed"],
    "shard_handoff_bytes": snapshot["shard_handoff_bytes"],
    "backhaul_bytes": snapshot["backhaul_bytes"],
    "series": sink.throughput_series_mbps(tb.sim.now),
}))
"""

    def test_src_bits_is_a_crc_of_the_id(self):
        assert src_bits("client0") == zlib.crc32(b"client0")
        assert pkt(ip_id=7).dedup_key() == (zlib.crc32(b"client0") << 16) | 7

    def test_handoff_bytes_equal_under_two_hash_seeds(self):
        src_dir = str(Path(__file__).resolve().parents[1] / "src")
        outputs = []
        for hash_seed in ("3", "4"):
            done = subprocess.run(
                [sys.executable, "-c", self.SCENARIO],
                env={**os.environ, "PYTHONHASHSEED": hash_seed, "PYTHONPATH": src_dir},
                check=True, capture_output=True, text=True, timeout=120,
            )
            outputs.append(json.loads(done.stdout))
        assert outputs[0]["handoffs"] >= 1  # a slice with uplink keys was shipped
        assert outputs[0] == outputs[1]
