"""Tests for the MAC layer: medium, DCF, rate control, aggregation,
and the WifiDevice end-to-end over a controlled channel."""

import pytest

from repro.channel import ChannelMap, OmniAntenna, ParabolicAntenna, RadioPort
from repro.mac import (
    Dcf,
    MinstrelRateController,
    WifiDevice,
    WirelessMedium,
    build_ampdu_mpdus,
)
from repro.mac.blockack import BlockAckScoreboard
from repro.mac.frames import (
    DIFS_US,
    MAX_AMPDU_AIRTIME_US,
    MAX_AMPDU_SUBFRAMES,
    DataAmpdu,
)
from repro.mobility import Position, Road, VehicleTrack
from repro.net import DropTailQueue, Packet
from repro.phy.mcs import mcs_by_index
from repro.sim import RngRegistry, SECOND, Simulator


def make_pair(seed=1, client_x=9.0, speed_mph=0.0, ap_x=10.0):
    """One AP + one client on a quiet channel; client near boresight."""
    sim = Simulator()
    rng = RngRegistry(seed)
    road = Road()
    cmap = ChannelMap(sim, rng)
    mount = Position(ap_x, -12.0, 10.0)
    antenna = ParabolicAntenna(mount=mount, boresight=Position(ap_x, 0.0, 1.5))
    cmap.register_port(RadioPort("ap1", antenna, 20.0, lambda t: mount))
    track = VehicleTrack(road, start_x=client_x, speed_mph=speed_mph)
    cmap.register_port(
        RadioPort(
            "client1", OmniAntenna(), 15.0, track.position_at,
            lambda: track.speed_mps,
        )
    )
    medium = WirelessMedium(sim, cmap)
    ap = WifiDevice(sim, medium, rng, "ap1", role="ap")
    client = WifiDevice(sim, medium, rng, "client1", role="client")
    return sim, medium, ap, client


def pkt(seq=0, dst="client1"):
    return Packet("server", dst, 1500, seq=seq)


# ----------------------------------------------------------------------
# medium
# ----------------------------------------------------------------------

class TestMedium:
    def test_downlink_delivery_at_good_snr(self):
        sim, medium, ap, client = make_pair()
        got = []
        client.on_packet = lambda p, src: got.append(p.seq)
        for i in range(20):
            ap.enqueue(pkt(i), "client1")
        sim.run(until_us=SECOND)
        assert len(got) >= 18  # near-boresight link delivers
        assert got == sorted(got)  # in order

    def test_block_ack_round_trip(self):
        sim, medium, ap, client = make_pair()
        for i in range(10):
            ap.enqueue(pkt(i), "client1")
        sim.run(until_us=SECOND)
        assert ap.stats["ba_received"] >= 1
        assert client.stats["ba_sent"] >= 1
        assert ap.stats["mpdus_acked"] >= 9

    def test_carrier_sense_busy_during_transmission(self):
        sim, medium, ap, client = make_pair()
        ap.enqueue(pkt(0), "client1")
        # step until the frame is on the air
        while not medium._transmissions and sim.step():
            pass
        assert medium._transmissions
        tx = medium._transmissions[-1]
        probe_time = tx.start_us + 50
        assert medium.busy_until("client1", now=probe_time) >= tx.end_us

    def test_airtime_accounting(self):
        sim, medium, ap, client = make_pair()
        ap.enqueue(pkt(0), "client1")
        sim.run(until_us=SECOND // 10)
        assert medium.frames_sent >= 2  # data + BA
        assert medium.airtime_us > 0

    def test_duplicate_device_rejected(self):
        sim, medium, ap, client = make_pair()
        with pytest.raises(ValueError):
            medium.register(ap)

    def test_half_duplex_no_self_reception(self):
        """A device never receives its own transmission."""
        sim, medium, ap, client = make_pair()
        heard_own = []
        original = ap.on_air_frame
        ap.on_air_frame = lambda f, s, d: (
            heard_own.append(f) if f.tx_device == "ap1" else original(f, s, d)
        )
        ap.enqueue(pkt(0), "client1")
        sim.run(until_us=SECOND // 10)
        assert heard_own == []


# ----------------------------------------------------------------------
# DCF
# ----------------------------------------------------------------------

class TestDcf:
    def make(self):
        sim, medium, ap, client = make_pair()
        return sim, Dcf(sim, medium, "ap1", RngRegistry(9).stream("dcf"))

    def test_grant_after_difs_on_idle_medium(self):
        sim, dcf = self.make()
        granted = []
        dcf.request_access(lambda: granted.append(sim.now))
        sim.run()
        assert len(granted) == 1
        assert granted[0] >= DIFS_US

    def test_single_outstanding_request(self):
        sim, dcf = self.make()
        dcf.request_access(lambda: None)
        with pytest.raises(RuntimeError):
            dcf.request_access(lambda: None)

    def test_cancel_prevents_grant(self):
        sim, dcf = self.make()
        granted = []
        dcf.request_access(lambda: granted.append(1))
        dcf.cancel()
        sim.run()
        assert granted == []
        assert not dcf.busy

    def test_cw_escalation_and_reset(self):
        _, dcf = self.make()
        initial = dcf.contention_window
        dcf.notify_failure()
        assert dcf.contention_window == 2 * initial + 1
        for _ in range(20):
            dcf.notify_failure()
        assert dcf.contention_window == 1023
        dcf.notify_success()
        assert dcf.contention_window == initial


# ----------------------------------------------------------------------
# rate control
# ----------------------------------------------------------------------

class TestMinstrel:
    def make(self):
        sim = Simulator()
        return sim, MinstrelRateController(sim, RngRegistry(4).stream("m"))

    def test_initial_rate_is_mid_table(self):
        _, rc = self.make()
        assert rc.current_mcs.index == 4

    def test_converges_down_under_failure(self):
        sim, rc = self.make()
        for round_no in range(200):
            mcs = rc.select_mcs()
            # everything above MCS2 fails, MCS<=2 succeeds
            acked = 10 if mcs.index <= 2 else 0
            rc.feedback(mcs, attempted=10, acked=acked)
            sim._now += 60_000
        assert rc.current_mcs.index <= 2

    def test_converges_up_when_everything_succeeds(self):
        sim, rc = self.make()
        for _ in range(200):
            mcs = rc.select_mcs()
            rc.feedback(mcs, attempted=10, acked=10)
            sim._now += 60_000
        assert rc.current_mcs.index >= 6

    def test_untried_rates_not_promoted_without_samples(self):
        sim, rc = self.make()
        rc.feedback(mcs_by_index(4), attempted=10, acked=10)
        sim._now += 200_000
        rc.feedback(mcs_by_index(4), attempted=10, acked=10)
        # MCS7 untried: must not be the primary rate purely on priors.
        assert rc.current_mcs.index != 7 or rc.probability(7) != 0.5

    def test_control_rate_feedback_ignored(self):
        from repro.phy.mcs import CONTROL_RATE

        _, rc = self.make()
        rc.feedback(CONTROL_RATE, attempted=5, acked=0)  # must not crash

    def test_sampling_occurs(self):
        sim, rc = self.make()
        chosen = set()
        for _ in range(200):
            chosen.add(rc.select_mcs().index)
        assert len(chosen) > 1


# ----------------------------------------------------------------------
# aggregation
# ----------------------------------------------------------------------

class TestAggregation:
    def test_builds_up_to_window_and_subframe_limits(self):
        board = BlockAckScoreboard()
        queue = DropTailQueue(256)
        for i in range(200):
            queue.enqueue(pkt(i))
        mpdus = build_ampdu_mpdus(board, queue, mcs_by_index(7))
        assert 1 <= len(mpdus) <= MAX_AMPDU_SUBFRAMES
        # the 4 ms airtime budget binds before the 64-frame window:
        # ~23 x 1568-byte subframes fit at 72.2 Mbit/s
        assert 18 <= len(mpdus) <= 30

    def test_airtime_budget_limits_low_rates(self):
        board = BlockAckScoreboard()
        queue = DropTailQueue(256)
        for i in range(200):
            queue.enqueue(pkt(i))
        mpdus = build_ampdu_mpdus(board, queue, mcs_by_index(0))
        # 4 ms at 7.2 Mbit/s is ~2-3 full frames
        assert len(mpdus) <= 3

    @pytest.mark.xfail(
        strict=True,
        reason="known issue (docs/scaling.md, 'Interferers are not pruned'): "
        "retransmits are taken before the airtime loop, so the cap never "
        "binds them; the fix changes behaviour and waits for ROADMAP item 1(b)",
    )
    def test_airtime_budget_binds_retransmissions_after_a_rate_drop(self):
        """An aggregate built at MCS 7 times out whole and is retried at
        MCS 0: the retry must fit the 4 ms cap like any other aggregate
        (today it is ~39 ms -- longer than any 802.11n PPDU, and than
        the medium's 20 ms interference history)."""
        board = BlockAckScoreboard()
        queue = DropTailQueue(256)
        for i in range(200):
            queue.enqueue(pkt(i))
        first = build_ampdu_mpdus(board, queue, mcs_by_index(7))
        board.record_transmit(first)
        board.process_timeout([m.seq for m in first])
        slow = mcs_by_index(0)
        retry = DataAmpdu("ap1", "ap1", "client1", build_ampdu_mpdus(board, queue, slow), slow)
        assert len(retry.mpdus) > 0
        assert len(retry.mpdus) == 1 or retry.duration_us() <= MAX_AMPDU_AIRTIME_US

    def test_retransmissions_first(self):
        board = BlockAckScoreboard()
        queue = DropTailQueue(16)
        first = board.issue(pkt(0))
        board.record_transmit([first])
        board.process_timeout([first.seq])
        queue.enqueue(pkt(1))
        mpdus = build_ampdu_mpdus(board, queue, mcs_by_index(7))
        assert mpdus[0].seq == first.seq
        assert mpdus[0].retries == 1

    def test_empty_inputs_yield_empty(self):
        board = BlockAckScoreboard()
        queue = DropTailQueue(4)
        assert build_ampdu_mpdus(board, queue, mcs_by_index(5)) == []

    def test_always_at_least_one_frame_even_at_min_rate(self):
        board = BlockAckScoreboard()
        queue = DropTailQueue(4)
        queue.enqueue(pkt(0))
        mpdus = build_ampdu_mpdus(board, queue, mcs_by_index(0))
        assert len(mpdus) == 1


# ----------------------------------------------------------------------
# device behaviours
# ----------------------------------------------------------------------

class TestWifiDevice:
    def test_shared_bssid_reaches_all_aps(self):
        """A frame addressed to the shared BSSID is received by every
        WGTT AP at once — uplink diversity for free."""
        sim = Simulator()
        rng = RngRegistry(2)
        road = Road()
        cmap = ChannelMap(sim, rng)
        for i, x in enumerate((10.0, 17.5)):
            mount = Position(x, -12.0, 10.0)
            ant = ParabolicAntenna(mount=mount, boresight=Position(x, 0.0, 1.5))
            cmap.register_port(RadioPort(f"ap{i}", ant, 20.0, lambda t, m=mount: m))
        track = VehicleTrack(road, start_x=13.75, speed_mph=0.0)  # midway
        cmap.register_port(
            RadioPort("client1", OmniAntenna(), 15.0, track.position_at,
                      lambda: track.speed_mps)
        )
        medium = WirelessMedium(sim, cmap)
        aps = [
            WifiDevice(sim, medium, rng, f"ap{i}", role="ap",
                       addresses={"bss"}, monitor=True, response_jitter_us=16)
            for i in range(2)
        ]
        for ap in aps:
            ap.ta_address = "bss"
        client = WifiDevice(sim, medium, rng, "client1", role="client")
        received = {0: [], 1: []}
        aps[0].on_packet = lambda p, s: received[0].append(p.seq)
        aps[1].on_packet = lambda p, s: received[1].append(p.seq)
        for i in range(60):
            client.enqueue(Packet("client1", "server", 1400, seq=i), "bss")
        sim.run(until_us=3 * SECOND)
        # both APs decode a substantial share from the midpoint
        assert len(received[0]) > 10
        assert len(received[1]) > 10

    def test_beaconing(self):
        sim, medium, ap, client = make_pair()
        beacons = []
        client.on_beacon = lambda f, rssi: beacons.append((sim.now, rssi))
        ap.start_beaconing(interval_us=100_000)
        sim.run(until_us=SECOND)
        assert 7 <= len(beacons) <= 11
        assert all(-95 < rssi < -20 for _, rssi in beacons)

    def test_mgmt_exchange_with_ack(self):
        sim, medium, ap, client = make_pair()
        results = []
        seen = []
        ap.on_mgmt = lambda f: seen.append(f.subtype)
        client.send_mgmt("assoc-req", "ap1", on_result=results.append)
        sim.run(until_us=SECOND // 10)
        assert seen == ["assoc-req"]
        assert results == [True]

    def test_mgmt_fails_out_of_range(self):
        sim, medium, ap, client = make_pair(client_x=300.0)
        results = []
        client.send_mgmt("assoc-req", "ap1", on_result=results.append)
        sim.run(until_us=2 * SECOND)
        assert results == [False]

    def test_session_mode_gating(self):
        sim, medium, ap, client = make_pair()
        got = []
        client.on_packet = lambda p, s: got.append(p.seq)
        ap.set_session_mode("client1", "off")
        for i in range(5):
            ap.enqueue(pkt(i), "client1")
        sim.run(until_us=SECOND // 5)
        assert got == []
        ap.set_session_mode("client1", "active")
        sim.run(until_us=SECOND)
        assert len(got) == 5

    def test_invalid_session_mode(self):
        sim, medium, ap, client = make_pair()
        with pytest.raises(ValueError):
            ap.set_session_mode("client1", "paused")

    def test_reset_tx_state_continues_seq_space(self):
        sim, medium, ap, client = make_pair()
        ap.reset_tx_state("client1", 777)
        got = []
        client.on_packet = lambda p, s: got.append(p.seq)
        ap.enqueue(pkt(42), "client1")
        sim.run(until_us=SECOND // 5)
        assert got == [42]
        session = ap.session("client1")
        assert session.scoreboard.window_start == 778

    def test_data_filter_blocks_foreign_bss(self):
        sim, medium, ap, client = make_pair()
        client.accept_data_from = lambda ta: ta == "some-other-ap"
        got = []
        client.on_packet = lambda p, s: got.append(p)
        ap.enqueue(pkt(0), "client1")
        sim.run(until_us=SECOND // 5)
        assert got == []
        assert ap.stats["ba_timeouts"] >= 1  # client never acknowledged

    def test_csi_measured_on_client_frames_only(self):
        sim, medium, ap, client = make_pair()
        csi = []
        ap.on_csi = lambda c, snr, rssi: csi.append((c, rssi))
        client.enqueue(Packet("client1", "server", 500, seq=0), "ap1")
        sim.run(until_us=SECOND // 5)
        assert csi and all(c == "client1" for c, _ in csi)
        assert all(isinstance(r, float) for _, r in csi)

    def test_role_validation(self):
        sim, medium, ap, client = make_pair()
        with pytest.raises(ValueError):
            WifiDevice(sim, medium, RngRegistry(1), "x", role="router")

    def test_client_cannot_beacon(self):
        sim, medium, ap, client = make_pair()
        with pytest.raises(RuntimeError):
            client.start_beaconing()
