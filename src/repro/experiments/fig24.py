"""Figure 24: video conferencing frame rate CDF.

A two-party call with one end on the vehicle: bidirectional frame
streams over UDP under WGTT. Skype keeps its resolution and delivers
~20 fps at the 85th percentile; Hangouts shrinks frames under loss and
sustains a much higher frame rate — the paper measures ~56 fps.
"""

from __future__ import annotations

from typing import Dict, List

from repro.apps.conferencing import (
    HANGOUTS,
    SKYPE,
    ConferencingReceiver,
    ConferencingSender,
)
from repro.experiments.registry import Claim, register
from repro.experiments.runner import sweep
from repro.metrics.stats import cdf_points, percentile
from repro.scenarios.testbed import Testbed, TestbedConfig

CODECS = {codec.name: codec for codec in (SKYPE, HANGOUTS)}


def cell(seed: int, codec_name: str, speed_mph: float, duration_s: float) -> Dict:
    codec = CODECS[codec_name]
    config = TestbedConfig(
        seed=seed, scheme="wgtt", client_speeds_mph=[speed_mph]
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


def run(seed: int = 3, quick: bool = True, jobs: int = 1) -> Dict:
    duration = 6.0 if quick else 10.0
    speeds = (15.0,) if quick else (5.0, 15.0)
    cells = sweep(
        cell,
        [(name, speed, duration) for name in CODECS for speed in speeds],
        (seed,),
        jobs,
    )
    return {
        f"{name}-{int(speed)}mph": values[0]
        for (name, speed, _), values in cells.items()
    }


def shape(result: Dict) -> List[Claim]:
    claims: List[Claim] = []
    for speed in ("5mph", "15mph"):
        skype, hangouts = result[f"skype-{speed}"], result[f"hangouts-{speed}"]
        # At most a rare mid-valley silent second.
        interior = skype["fps_series"][1:-1] or [1]
        claims += [
            Claim(f"{speed}: Hangouts' median fps is more than 1.4x Skype's",
                  hangouts["median"] > 1.4 * skype["median"]),
            Claim(f"{speed}: the Skype call delivers frames",
                  sum(interior) > 0),
            Claim(f"{speed}: the Skype call has at most two silent seconds",
                  sum(1 for f in interior if f == 0) <= 2),
            Claim(f"{speed}: Hangouts' 85th percentile is above 40 fps",
                  hangouts["p85"] > 40),
            Claim(f"{speed}: Skype's 85th percentile is bounded by its "
                  "30 fps capture rate", skype["p85"] <= 31),
        ]
    return claims


register(
    "fig24", "conferencing fps CDF", run, shape=shape, full=True,
    paper="Skype ~20 fps at the 85th pct; Hangouts ~56 fps (it shrinks "
    "frames under loss instead of dropping them)",
)
