"""Figure 18: uplink UDP loss with three mobile clients.

Three clients each push an uplink UDP stream while driving. Under WGTT
every AP that overhears a datagram forwards it (the controller
de-duplicates), so windowed loss stays near zero; the baseline's single
uplink path spikes whenever the serving AP lags the client.
"""

from __future__ import annotations

from typing import Dict, List

from repro.experiments.common import SCHEMES, mean
from repro.experiments.registry import Claim, register
from repro.experiments.runner import sweep
from repro.obs.recorders import UplinkLossMeter
from repro.scenarios.presets import multi_client_config
from repro.scenarios.testbed import Testbed
from repro.sim.engine import SECOND, Timer

NUM_CLIENTS = 3


def cell(seed: int, scheme: str, duration_s: float) -> Dict:
    config = multi_client_config(
        NUM_CLIENTS, speed_mph=15.0, seed=seed, scheme=scheme
    )
    testbed = Testbed(config)
    meters: List[UplinkLossMeter] = []
    for i in range(NUM_CLIENTS):
        source, sink = testbed.add_uplink_udp_flow(i, rate_bps=2e6)
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


def run(seed: int = 3, quick: bool = True, jobs: int = 1) -> Dict:
    duration = 6.0 if quick else 9.0
    cells = sweep(cell, [(scheme, duration) for scheme in SCHEMES], (seed,), jobs)
    return {scheme: cells[scheme, duration][0] for scheme in SCHEMES}


def shape(result: Dict) -> List[Claim]:
    wgtt, base = result["wgtt"], result["baseline"]
    wgtt_mean, base_mean = mean(wgtt["mean_loss"]), mean(base["mean_loss"])
    return [
        Claim("WGTT's mean uplink loss is under half the baseline's",
              wgtt_mean < 0.5 * base_mean),
        Claim("WGTT's mean uplink loss is under 0.35", wgtt_mean < 0.35),
        Claim("the baseline hits total-blackout bins (loss >= 0.9)",
              max(base["max_loss"]) >= 0.9),
        Claim("WGTT's worst bin is no worse than the baseline's",
              max(wgtt["max_loss"]) < max(base["max_loss"]) + 1e-9),
        Claim("the controller removed duplicate uplink copies",
              wgtt["controller_duplicate_ratio"] > 0.0),
        # Our calibrated narrow beams leave genuinely weak uplink
        # valleys between cells (EXPERIMENTS.md): the ordering and the
        # gap are reproduced, the paper's level is not.
        Claim("WGTT's uplink loss stays under 0.02 for every client",
              max(wgtt["mean_loss"]) < 0.02, expected=False),
    ]


register(
    "fig18", "multi-client uplink loss", run, shape=shape, full=True,
    paper="WGTT per-client loss stays near zero (<0.02 in the paper); "
    "the single-path baseline spikes to 1.0 around handovers",
)
