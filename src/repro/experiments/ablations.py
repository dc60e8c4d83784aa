"""Ablations of WGTT's design choices.

The paper argues for each mechanism qualitatively; these runs turn the
arguments into measurements by disabling one mechanism at a time on the
otherwise-identical 15 mph TCP drive:

* ``no-ba-forwarding`` — overheard block ACKs are discarded (§3.2.1).
* ``no-fanout``        — downlink goes only to the serving AP, so a
                         switch starts with an empty cyclic queue
                         (§3.1.2's pre-placement removed).
* ``metric-latest``    — AP selection uses the newest ESNR reading
                         instead of the window median (§3.1.1).
* ``metric-mean``      — window mean instead of median.
* ``multi-channel``    — adjacent APs on channels 1/6/11; the client
                         retunes on each switch and cross-channel
                         overhearing disappears (§7 discussion).
"""

from __future__ import annotations

import dataclasses
from typing import Dict, List, Optional

from repro.core.config import WgttConfig
from repro.experiments.common import mean, seeds_for
from repro.scenarios.testbed import Testbed, TestbedConfig
from repro.experiments.registry import register_experiment


def run_variant(
    seed: int,
    variant: str,
    speed_mph: float = 15.0,
    duration_s: float = 10.0,
) -> Dict:
    wgtt = WgttConfig()
    channel_plan: Optional[List[int]] = None
    if variant == "paper":
        pass
    elif variant == "no-ba-forwarding":
        wgtt = dataclasses.replace(wgtt, ba_forwarding_enabled=False)
    elif variant == "no-fanout":
        wgtt = dataclasses.replace(wgtt, fanout_enabled=False)
    elif variant == "metric-latest":
        wgtt = dataclasses.replace(wgtt, selection_metric="latest")
    elif variant == "metric-mean":
        wgtt = dataclasses.replace(wgtt, selection_metric="mean")
    elif variant == "multi-channel":
        channel_plan = [1, 6, 11]
    else:
        raise ValueError(f"unknown variant {variant!r}")
    config = TestbedConfig(
        seed=seed,
        scheme="wgtt",
        client_speeds_mph=[speed_mph],
        wgtt=wgtt,
        channel_plan=channel_plan,
    )
    testbed = Testbed(config)
    sender, receiver = testbed.add_downlink_tcp_flow(0)
    sender.start()
    testbed.run_seconds(duration_s)
    mpdu_retx = sum(
        ap.device.session("client0").scoreboard.retransmissions
        for ap in testbed.wgtt_aps.values()
        if "client0" in ap.device._sessions
    )
    ba_applied = sum(
        ap.stats["ba_forward_applied"] for ap in testbed.wgtt_aps.values()
    )
    return {
        "variant": variant,
        "throughput_mbps": sender.throughput_mbps(testbed.sim.now),
        "switches": len(testbed.controller.coordinator.history),
        "tcp_timeouts": sender.timeouts,
        "mpdu_retransmissions": mpdu_retx,
        "ba_forward_applied": ba_applied,
        "dedup_duplicates": testbed.controller.dedup.duplicates,
    }


VARIANTS = (
    "paper",
    "no-ba-forwarding",
    "no-fanout",
    "metric-latest",
    "metric-mean",
    "multi-channel",
)


@register_experiment("ablations", "WGTT design-choice ablations")
def run(quick: bool = True, variants: tuple = VARIANTS) -> Dict:
    seeds = seeds_for(quick)
    duration = 8.0 if quick else 10.0
    rows: List[Dict] = []
    for variant in variants:
        cells = [run_variant(seed, variant, duration_s=duration) for seed in seeds]
        rows.append(
            {
                "variant": variant,
                "throughput_mbps": mean(c["throughput_mbps"] for c in cells),
                "switches": mean(c["switches"] for c in cells),
                "tcp_timeouts": mean(c["tcp_timeouts"] for c in cells),
                "mpdu_retransmissions": mean(
                    c["mpdu_retransmissions"] for c in cells
                ),
                "ba_forward_applied": mean(
                    c["ba_forward_applied"] for c in cells
                ),
                "dedup_duplicates": mean(c["dedup_duplicates"] for c in cells),
            }
        )
    return {"rows": rows}
