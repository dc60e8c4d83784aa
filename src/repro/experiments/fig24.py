"""Figure 24: video conferencing frame rate CDF.

A two-party call with one end on the vehicle: bidirectional frame
streams over UDP under WGTT. Skype keeps its resolution and delivers
~20 fps at the 85th percentile; Hangouts shrinks frames under loss and
sustains a much higher frame rate — the paper measures ~56 fps.
"""

from __future__ import annotations

from typing import Dict

from repro.apps.conferencing import (
    HANGOUTS,
    SKYPE,
    ConferencingReceiver,
    ConferencingSender,
)
from repro.metrics.stats import cdf_points, percentile
from repro.scenarios.testbed import Testbed, TestbedConfig
from repro.experiments.registry import register_experiment


def run_call(
    seed: int,
    codec,
    speed_mph: float,
    scheme: str = "wgtt",
    duration_s: float = 10.0,
) -> Dict:
    config = TestbedConfig(
        seed=seed, scheme=scheme, client_speeds_mph=[speed_mph]
    )
    testbed = Testbed(config)
    client = testbed.clients[0]
    # Downlink leg (conference room -> vehicle).
    down = ConferencingSender(
        testbed.sim, "server", client.client_id, testbed.send_downlink,
        codec, flow_id="conf-down",
    )
    down_rx = ConferencingReceiver(testbed.sim, "conf-down", down)
    client.host.attach_raw("conf-down", down_rx.on_packet)
    # Uplink leg (vehicle -> conference room).
    up = ConferencingSender(
        testbed.sim, client.client_id, "server", client.send_uplink,
        codec, flow_id="conf-up",
    )
    up_rx = ConferencingReceiver(testbed.sim, "conf-up", up)
    testbed.server_host.attach_raw("conf-up", up_rx.on_packet)
    down.start()
    up.start()
    testbed.run_seconds(duration_s)
    fps = down_rx.fps_series()
    return {
        "codec": codec.name,
        "speed_mph": speed_mph,
        "fps_series": fps,
        "cdf": cdf_points(fps),
        "p85": percentile(fps, 85) if fps else 0.0,
        "median": percentile(fps, 50) if fps else 0.0,
        "uplink_fps_series": up_rx.fps_series(),
    }


@register_experiment("fig24", "conferencing fps CDF")
def run(seed: int = 3, quick: bool = False) -> Dict:
    duration = 6.0 if quick else 10.0
    speeds = (15.0,) if quick else (5.0, 15.0)
    results: Dict = {}
    for codec in (SKYPE, HANGOUTS):
        for speed in speeds:
            key = f"{codec.name}-{int(speed)}mph"
            results[key] = run_call(seed, codec, speed, duration_s=duration)
    return results
