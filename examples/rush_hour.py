#!/usr/bin/env python
"""Rush hour: three cars, mixed workloads, one AP array.

Three clients drive the corridor in single file. The first streams
video, the second browses the web (repeated 2.1 MB page loads), the
third pushes uplink telemetry. One WGTT controller juggles all three —
per-client cyclic queues, per-client switching, shared uplink
de-duplication.

Run:  python examples/rush_hour.py [seed]
"""

import sys

from repro.apps.video import VideoPlayer
from repro.apps.web import PageLoad
from repro.scenarios import Testbed, multi_client_config
from repro.sim.engine import SECOND


def main() -> None:
    seed = int(sys.argv[1]) if len(sys.argv) > 1 else 3
    # Stagger the column so all three start inside the deployment.
    config = multi_client_config(3, speed_mph=10.0, gap_m=8.0,
                                 seed=seed, scheme="wgtt",
                                 client_start_x_m=24.0)
    testbed = Testbed(config)

    # A streaming server paces delivery (~2x the media rate) rather
    # than blasting at link speed; that leaves airtime for the others.
    video_sender, video_receiver = testbed.add_downlink_tcp_flow(
        0, bulk=False
    )
    player = VideoPlayer(testbed.sim, video_receiver)
    from repro.sim.engine import Timer
    from repro.transport.tcp import MSS

    segments_per_tick = max(1, int(2 * player.bitrate_bps / 8 / MSS / 10))

    def pace():
        video_sender.supply(segments_per_tick)
        pacer.start(SECOND // 10)

    pacer = Timer(testbed.sim, pace)
    pacer.start(SECOND // 10)
    video_sender.start()

    telemetry_source, telemetry_sink = testbed.add_uplink_udp_flow(
        2, rate_bps=5e5
    )
    telemetry_source.start()

    duration_s = 12.0
    load_times = []
    page = PageLoad(testbed, client_index=1)
    elapsed = 0.0
    while elapsed < duration_s:
        testbed.run_seconds(0.25)
        elapsed += 0.25
        if page.complete:
            load_times.append(page.load_time_s())
            page = PageLoad(testbed, client_index=1)
    player.stop()

    print(f"Three clients, {duration_s:.0f} s of rush hour (seed {seed}):\n")
    print(f"client0 (video):     rebuffers={player.rebuffer_count}  "
          f"ratio={player.rebuffer_ratio(int(duration_s * SECOND)):.2f}")
    if load_times:
        mean_load = sum(load_times) / len(load_times)
        print(f"client1 (browsing):  {len(load_times)} page load(s), "
              f"mean {mean_load:.1f} s per 2.1 MB page")
    else:
        partial_mb = page.bytes_delivered() / 1e6
        print(f"client1 (browsing):  page still loading "
              f"({partial_mb:.1f}/2.1 MB) — the middle car contends "
              f"with both neighbours")
    received = telemetry_sink.packets_received()
    offered = telemetry_source.packets_sent
    print(f"client2 (telemetry): {received}/{offered} datagrams delivered "
          f"({100 * received / max(offered, 1):.1f}%)")

    controller = testbed.controller
    print(f"\ncontroller: {len(controller.coordinator.history)} switches, "
          f"{controller.stats['csi_reports']} CSI reports, "
          f"{controller.dedup.duplicates} duplicate uplink copies removed")
    per_client = {}
    for _, client, ap in controller.serving_timeline:
        per_client.setdefault(client, []).append(ap)
    for client_id in sorted(per_client):
        path = per_client[client_id]
        deduped = [a for a, b in zip(path, path[1:] + [None]) if a != b]
        print(f"  {client_id}: {' -> '.join(deduped[:10])}")


if __name__ == "__main__":
    main()
