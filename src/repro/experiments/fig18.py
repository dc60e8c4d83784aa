"""Figure 18: uplink UDP loss with three mobile clients.

Three clients each push an uplink UDP stream while driving. Under WGTT
every AP that overhears a datagram forwards it (the controller
de-duplicates), so windowed loss stays near zero; the baseline's single
uplink path spikes whenever the serving AP lags the client.
"""

from __future__ import annotations

from typing import Dict, List

from repro.obs.recorders import UplinkLossMeter
from repro.scenarios.presets import multi_client_config
from repro.scenarios.testbed import Testbed
from repro.sim.engine import SECOND, Timer
from repro.experiments.registry import register_experiment


def run_scheme(
    seed: int,
    scheme: str,
    num_clients: int = 3,
    duration_s: float = 9.0,
    rate_bps: float = 2e6,
) -> Dict:
    config = multi_client_config(
        num_clients, speed_mph=15.0, seed=seed, scheme=scheme
    )
    testbed = Testbed(config)
    meters: List[UplinkLossMeter] = []
    for i in range(num_clients):
        source, sink = testbed.add_uplink_udp_flow(i, rate_bps=rate_bps)
        source.start()
        meter = UplinkLossMeter(testbed.sim, source, sink, bin_us=SECOND // 2)
        meters.append(meter)

    def tick():
        for meter in meters:
            meter.sample()
        timer.start(SECOND // 2)

    timer = Timer(testbed.sim, tick)
    timer.start(SECOND // 2)
    testbed.run_seconds(duration_s)
    # Score each client only while it is inside the deployment — the
    # following clients start behind the first AP and genuinely have no
    # coverage for the first seconds of the run.
    first_x = testbed.config.ap_xs()[0] - 3.0
    last_x = testbed.config.ap_xs()[-1] + 3.0
    series = []
    for i, meter in enumerate(meters):
        track = testbed.clients[i].track
        in_coverage = [
            loss
            for t, loss in meter.series
            if first_x <= track.position_at(t).x <= last_x
        ]
        series.append(in_coverage)
    dup_ratio = (
        testbed.controller.dedup.duplicate_ratio()
        if testbed.controller is not None
        else 0.0
    )
    return {
        "scheme": scheme,
        "loss_series": series,
        "mean_loss": [
            sum(s) / len(s) if s else 0.0 for s in series
        ],
        "max_loss": [max(s) if s else 0.0 for s in series],
        "controller_duplicate_ratio": dup_ratio,
    }


@register_experiment("fig18", "multi-client uplink loss")
def run(seed: int = 3, quick: bool = False) -> Dict:
    duration = 6.0 if quick else 9.0
    return {
        "wgtt": run_scheme(seed, "wgtt", duration_s=duration),
        "baseline": run_scheme(seed, "baseline", duration_s=duration),
    }
