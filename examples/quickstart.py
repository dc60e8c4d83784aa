#!/usr/bin/env python
"""Quickstart: drive one client past the WGTT array with a TCP download.

Builds the paper's eight-AP roadside testbed, attaches a bulk TCP flow,
runs a 15 mph drive, and prints what the controller did: throughput,
switch timeline, and switch-protocol latencies (paper Table 1 /
Figure 14 territory).

Run:  python examples/quickstart.py [seed]
"""

import sys

from repro.scenarios import Testbed, TestbedConfig
from repro.sim.engine import SECOND


def main() -> None:
    seed = int(sys.argv[1]) if len(sys.argv) > 1 else 3
    config = TestbedConfig(seed=seed, scheme="wgtt", client_speeds_mph=[15.0])
    testbed = Testbed(config)
    sender, receiver = testbed.add_downlink_tcp_flow(0)
    sender.start()

    print(f"8 WGTT APs at x = {config.ap_xs()} m, client at 15 mph")
    duration_s = min(testbed.transit_duration_us() / SECOND, 10.0)
    testbed.run_seconds(duration_s)

    throughput = sender.throughput_mbps(testbed.sim.now)
    print(f"\nTCP throughput over {duration_s:.1f} s: {throughput:.2f} Mbit/s")
    print(f"TCP timeouts: {sender.timeouts}")

    from repro.metrics import sparkline, timeline

    series = receiver.goodput_series_mbps(
        testbed.sim.now, bin_us=SECOND // 4
    )
    print("\nGoodput (250 ms bins): " + sparkline(series))

    history = testbed.controller.coordinator.history
    durations = testbed.controller.switch_durations_ms()
    print(f"\nAP switches: {len(history)}"
          f" (~{len(history) / duration_s:.1f} per second)")
    if durations:
        print(f"Switch protocol time: mean {sum(durations)/len(durations):.1f} ms"
              f" (paper Table 1: 17-21 ms)")
    events = [
        (t / SECOND, ap) for t, _c, ap in testbed.controller.serving_timeline
    ]
    print("Serving AP over time:  " + timeline(events, duration_s))


if __name__ == "__main__":
    main()
