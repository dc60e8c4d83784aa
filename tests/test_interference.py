"""Tests for co-channel interference, capture, and collisions on the
shared medium."""


from repro.channel import ChannelMap, OmniAntenna, ParabolicAntenna, RadioPort
from repro.mac import DataAmpdu, WifiDevice, WirelessMedium
from repro.mobility import Position, Road, VehicleTrack
from repro.net import Packet
from repro.sim import RngRegistry, SECOND, Simulator


def build(seed=1, ap_xs=(10.0, 17.5), client_x=10.0):
    sim = Simulator()
    rng = RngRegistry(seed)
    road = Road()
    cmap = ChannelMap(sim, rng)
    aps = []
    for i, x in enumerate(ap_xs):
        mount = Position(x, -12.0, 10.0)
        antenna = ParabolicAntenna(
            mount=mount, boresight=Position(x, 0.0, 1.5), beamwidth_deg=10.0
        )
        cmap.register_port(
            RadioPort(f"ap{i}", antenna, 20.0, lambda t, m=mount: m)
        )
    track = VehicleTrack(road, start_x=client_x, speed_mph=0.0)
    cmap.register_port(
        RadioPort("client0", OmniAntenna(), 15.0, track.position_at,
                  lambda: track.speed_mps)
    )
    medium = WirelessMedium(sim, cmap)
    devices = [
        WifiDevice(sim, medium, rng, f"ap{i}", role="ap")
        for i in range(len(ap_xs))
    ]
    client = WifiDevice(sim, medium, rng, "client0", role="client")
    return sim, medium, devices, client


def test_overlapping_equal_power_transmissions_collide():
    """Two APs equidistant from the client transmitting simultaneously:
    near-0 dB SINR kills both frames."""
    sim, medium, (ap0, ap1), client = build(
        ap_xs=(10.0, 17.5), client_x=13.75
    )
    got = []
    client.on_packet = lambda p, src: got.append(p.seq)
    # Bypass DCF: force both frames onto the air at the same instant.
    from repro.phy.mcs import mcs_by_index

    for i, ap in enumerate((ap0, ap1)):
        session = ap.session("client0")
        mpdu = session.scoreboard.issue(
            Packet("server", "client0", 1500, seq=i)
        )
        frame = DataAmpdu(
            tx_device=ap.node_id, ta=ap.node_id, ra="client0",
            mpdus=[mpdu], mcs=mcs_by_index(0), window_start=mpdu.seq,
        )
        medium.transmit(frame)
    sim.run(until_us=SECOND // 10)
    assert got == []  # mutual destruction at ~0 dB SINR


def test_capture_strong_frame_survives_weak_overlap():
    """A client parked at AP0's boresight still decodes AP0 through a
    simultaneous transmission from the much weaker AP1."""
    sim, medium, (ap0, ap1), client = build(
        ap_xs=(10.0, 17.5), client_x=10.0
    )
    got = []
    client.on_packet = lambda p, src: got.append((p.seq, src))
    from repro.phy.mcs import mcs_by_index

    for i, ap in enumerate((ap0, ap1)):
        session = ap.session("client0")
        mpdu = session.scoreboard.issue(
            Packet("server", "client0", 1500, seq=i)
        )
        frame = DataAmpdu(
            tx_device=ap.node_id, ta=ap.node_id, ra="client0",
            mpdus=[mpdu], mcs=mcs_by_index(0), window_start=mpdu.seq,
        )
        medium.transmit(frame)
    sim.run(until_us=SECOND // 10)
    senders = {src for _seq, src in got}
    assert "ap0" in senders  # the ~18 dB-stronger frame captures
    assert "ap1" not in senders


def test_two_contending_clients_share_airtime():
    """Two saturating downlink sessions on one channel each get a
    meaningful share — CSMA/CA does its job."""
    sim = Simulator()
    rng = RngRegistry(5)
    road = Road()
    cmap = ChannelMap(sim, rng)
    mount = Position(10.0, -12.0, 10.0)
    antenna = ParabolicAntenna(mount=mount, boresight=Position(10.0, 0.0, 1.5))
    cmap.register_port(RadioPort("ap0", antenna, 20.0, lambda t: mount))
    for i, x in enumerate((9.0, 11.0)):
        track = VehicleTrack(road, start_x=x, speed_mph=0.0)
        cmap.register_port(
            RadioPort(f"client{i}", OmniAntenna(), 15.0, track.position_at,
                      lambda: 0.0)
        )
    medium = WirelessMedium(sim, cmap)
    ap = WifiDevice(sim, medium, rng, "ap0", role="ap")
    clients = [
        WifiDevice(sim, medium, rng, f"client{i}", role="client")
        for i in range(2)
    ]
    received = {0: 0, 1: 0}
    clients[0].on_packet = lambda p, s: received.__setitem__(0, received[0] + 1)
    clients[1].on_packet = lambda p, s: received.__setitem__(1, received[1] + 1)

    def refill(peer):
        for _ in range(ap.queue_room(peer)):
            ap.enqueue(Packet("server", peer, 1500), peer)

    ap.on_refill_needed = refill
    refill("client0")
    refill("client1")
    sim.run(until_us=2 * SECOND)
    total = received[0] + received[1]
    assert total > 1000
    # neither session starves
    assert min(received.values()) > 0.2 * total


def test_collision_rate_rises_with_contention():
    """More contending stations -> more DCF collisions (CW escalations)."""

    def run(num_clients):
        sim = Simulator()
        rng = RngRegistry(8)
        road = Road()
        cmap = ChannelMap(sim, rng)
        mount = Position(10.0, -12.0, 10.0)
        antenna = ParabolicAntenna(
            mount=mount, boresight=Position(10.0, 0.0, 1.5)
        )
        cmap.register_port(RadioPort("ap0", antenna, 20.0, lambda t: mount))
        clients = []
        for i in range(num_clients):
            track = VehicleTrack(road, start_x=9.0 + 0.3 * i, speed_mph=0.0)
            cmap.register_port(
                RadioPort(f"client{i}", OmniAntenna(), 15.0,
                          track.position_at, lambda: 0.0)
            )
        medium = WirelessMedium(sim, cmap)
        ap = WifiDevice(sim, medium, rng, "ap0", role="ap")
        devices = [
            WifiDevice(sim, medium, rng, f"client{i}", role="client")
            for i in range(num_clients)
        ]
        for i, device in enumerate(devices):
            for seq in range(400):
                device.enqueue(
                    Packet(f"client{i}", "server", 1400, seq=seq), "ap0"
                )
        sim.run(until_us=SECOND)
        return sum(d.dcf.collisions_backed_off for d in devices)

    assert run(4) > run(1)
