"""End-to-end application-pipeline tests over the real testbed: video,
conferencing, and web on a parked (good-link) client."""


from repro.apps.conferencing import SKYPE, ConferencingReceiver, ConferencingSender
from repro.apps.video import VideoPlayer
from repro.scenarios.testbed import Testbed, TestbedConfig
from repro.sim.engine import SECOND


def parked_testbed(seed=3, scheme="wgtt"):
    return Testbed(
        TestbedConfig(seed=seed, scheme=scheme, client_speeds_mph=[0.0],
                      client_start_x_m=9.5)
    )


def test_video_streams_cleanly_on_good_link():
    testbed = parked_testbed()
    sender, receiver = testbed.add_downlink_tcp_flow(0)
    player = VideoPlayer(testbed.sim, receiver)
    sender.start()
    testbed.run_seconds(6.0)
    player.stop()
    assert player.rebuffer_count == 0
    assert player.rebuffer_ratio(6 * SECOND) == 0.0
    # playback really consumed media (~4.5 s of it after prebuffering)
    assert player.playback_us > 3 * SECOND


def test_video_stalls_when_scheme_cannot_deliver():
    """Throttle the link far below the video rate: the player must
    report a high rebuffer ratio, not silently zero."""
    testbed = parked_testbed()
    sender, receiver = testbed.add_downlink_tcp_flow(0, bulk=False)
    player = VideoPlayer(testbed.sim, receiver, bitrate_bps=3_000_000)
    sender.start()
    # Supply only ~1 s of media over 6 s of wall clock.
    from repro.transport.tcp import MSS

    sender.supply(int(3_000_000 / 8 / MSS))
    testbed.run_seconds(6.0)
    player.stop()
    assert player.rebuffer_ratio(6 * SECOND) > 0.4


def test_conferencing_over_real_testbed():
    testbed = parked_testbed()
    client = testbed.clients[0]
    down = ConferencingSender(
        testbed.sim, "server", client.client_id, testbed.send_downlink,
        SKYPE, flow_id="conf-dl",
    )
    down_rx = ConferencingReceiver(testbed.sim, "conf-dl", down)
    client.host.attach_raw("conf-dl", down_rx.on_packet)
    down.start()
    testbed.run_seconds(5.0)
    fps = down_rx.fps_series()
    assert fps
    mid = fps[len(fps) // 2]
    assert mid >= SKYPE.target_fps - 4  # near-perfect on a parked link


def test_web_load_faster_than_transit_budget():
    from repro.apps.web import PageLoad

    testbed = parked_testbed()
    page = PageLoad(testbed)
    testbed.run_seconds(10.0)
    assert page.complete
    assert page.load_time_s() < 8.0
