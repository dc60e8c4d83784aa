#!/usr/bin/env python
"""Stream HD video on the commute (the paper's §5.4 case study).

A passenger watches a 720p stream while the car drives past the AP
array. Under WGTT playback never stalls; under Enhanced 802.11r it
rebuffers whenever a handover lags (paper Table 4).

Run:  python examples/video_commute.py [speed_mph]
"""

import sys

from repro.apps.video import VideoPlayer
from repro.scenarios import Testbed, TestbedConfig
from repro.sim.engine import SECOND


def watch(scheme: str, speed_mph: float, seed: int = 3) -> None:
    config = TestbedConfig(
        seed=seed, scheme=scheme, client_speeds_mph=[speed_mph]
    )
    testbed = Testbed(config)
    sender, receiver = testbed.add_downlink_tcp_flow(0)
    player = VideoPlayer(testbed.sim, receiver)
    sender.start()
    transit_us = min(testbed.transit_duration_us(), 30 * SECOND)
    testbed.run_seconds(transit_us / SECOND)
    player.stop()
    label = "WGTT" if scheme == "wgtt" else "Enhanced 802.11r"
    ratio = player.rebuffer_ratio(transit_us)
    print(f"{label:18} rebuffers: {player.rebuffer_count:2d}   "
          f"rebuffer ratio: {ratio:.2f}   "
          f"({'smooth playback' if ratio == 0 else 'interrupted'})")


def main() -> None:
    speed = float(sys.argv[1]) if len(sys.argv) > 1 else 15.0
    print(f"Watching a 3 Mbit/s 720p stream at {speed:g} mph "
          f"(1.5 s pre-buffer)\n")
    watch("wgtt", speed)
    watch("baseline", speed)
    print("\nPaper Table 4: WGTT rebuffer ratio 0 at all speeds; "
          "Enhanced 802.11r 0.54-0.69.")


if __name__ == "__main__":
    main()
