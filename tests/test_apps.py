"""Tests for the application workloads: video, conferencing, web, bulk."""


from repro.apps.conferencing import (
    HANGOUTS,
    SKYPE,
    ConferencingReceiver,
    ConferencingSender,
)
from repro.apps.video import VideoPlayer
from repro.apps.web import PageLoad
from repro.sim import MS, SECOND, Simulator
from repro.transport.tcp import MSS


class FakeReceiver:
    """Stands in for a TcpReceiver: the player only uses on_deliver."""

    def __init__(self):
        self.on_deliver = lambda segments: None


class TestVideoPlayer:
    def make(self, bitrate=3_000_000):
        sim = Simulator()
        receiver = FakeReceiver()
        player = VideoPlayer(sim, receiver, bitrate_bps=bitrate)
        return sim, receiver, player

    def feed_seconds(self, receiver, player, media_seconds):
        segments = int(media_seconds * player.bitrate_bps / 8 / MSS) + 1
        receiver.on_deliver(segments)

    def test_playback_starts_after_prebuffer(self):
        sim, receiver, player = self.make()
        assert not player.playing
        self.feed_seconds(receiver, player, 2.0)
        sim.run(until_us=200 * MS)
        assert player.playing

    def test_no_rebuffer_when_supply_keeps_up(self):
        sim, receiver, player = self.make()
        for _ in range(20):
            self.feed_seconds(receiver, player, 0.6)
            sim.run(until_us=sim.now + 500 * MS)
        player.stop()
        assert player.rebuffer_count == 0
        assert player.rebuffer_ratio(10 * SECOND) == 0.0

    def test_stall_when_supply_stops(self):
        sim, receiver, player = self.make()
        self.feed_seconds(receiver, player, 2.0)
        sim.run(until_us=4 * SECOND)  # buffer drains after ~2 s
        assert not player.playing
        # refill: playback resumes after the prebuffer, one rebuffer
        self.feed_seconds(receiver, player, 3.0)
        sim.run(until_us=5 * SECOND)
        assert player.playing
        player.stop()
        assert player.rebuffer_count == 1
        assert player.rebuffer_ratio(5 * SECOND) > 0.1

    def test_initial_buffering_not_counted_as_rebuffer(self):
        sim, receiver, player = self.make()
        self.feed_seconds(receiver, player, 3.0)
        sim.run(until_us=2 * SECOND)
        player.stop()
        assert player.rebuffer_count == 0


class TestConferencing:
    def run_call(self, codec, loss_fragments=lambda p: False, seconds=5):
        sim = Simulator()
        delivered = []

        def network(packet):
            if not loss_fragments(packet):
                sim.schedule(2_000, lambda: receiver.on_packet(packet))

        sender = ConferencingSender(sim, "a", "b", network, codec, "conf")
        receiver = ConferencingReceiver(sim, "conf", sender)
        sender.start()
        sim.run(until_us=seconds * SECOND)
        return sender, receiver

    def test_clean_path_delivers_target_fps(self):
        sender, receiver = self.run_call(SKYPE)
        fps = receiver.fps_series()
        assert fps and abs(fps[len(fps) // 2] - SKYPE.target_fps) <= 2

    def test_lost_fragment_kills_whole_frame(self):
        drop = lambda p: p.meta["frame_id"] % 2 == 0 and p.meta["fragment"] == 0
        sender, receiver = self.run_call(SKYPE, drop)
        fps = receiver.fps_series()
        mid = fps[len(fps) // 2]
        assert mid <= SKYPE.target_fps // 2 + 2

    def test_hangouts_adapts_frame_size_under_loss(self):
        import random

        rng = random.Random(7)
        drop = lambda p: rng.random() < 0.2
        sender, receiver = self.run_call(HANGOUTS, drop, seconds=8)
        assert sender._frame_bytes < HANGOUTS.frame_bytes

    def test_skype_never_adapts(self):
        import random

        rng = random.Random(7)
        drop = lambda p: rng.random() < 0.2
        sender, receiver = self.run_call(SKYPE, drop, seconds=8)
        assert sender._frame_bytes == SKYPE.frame_bytes


class TestPageLoad:
    def test_page_completes_on_good_link(self):
        from repro.scenarios.testbed import Testbed, TestbedConfig

        testbed = Testbed(
            TestbedConfig(
                seed=3, scheme="wgtt", client_speeds_mph=[0.0],
                client_start_x_m=9.5,
            )
        )
        page = PageLoad(testbed, page_bytes=400_000)
        testbed.run_seconds(8.0)
        assert page.complete
        assert 0.05 < page.load_time_s() < 8.0
        assert page.bytes_delivered() >= 400_000 - 6 * MSS

    def test_incomplete_page_reports_infinity(self):
        from repro.scenarios.testbed import Testbed, TestbedConfig

        testbed = Testbed(
            TestbedConfig(
                seed=3, scheme="wgtt", client_speeds_mph=[0.0],
                client_start_x_m=9.5,
            )
        )
        page = PageLoad(testbed, page_bytes=50_000_000)
        testbed.run_seconds(2.0)
        assert not page.complete
        assert page.load_time_s() == float("inf")
