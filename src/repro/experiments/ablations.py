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

from repro.apps.bulk import Drive
from repro.core.config import WgttConfig
from repro.experiments.common import mean, seeds_for
from repro.experiments.registry import Claim, register
from repro.experiments.runner import sweep
from repro.scenarios.testbed import TestbedConfig


def cell(seed: int, variant: str, duration_s: float) -> Dict:
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
        client_speeds_mph=[15.0],
        wgtt=wgtt,
        channel_plan=channel_plan,
    )
    drive = Drive(config, "tcp")
    drive.run(duration_s)
    testbed = drive.testbed
    mpdu_retx = sum(
        ap.device.session("client0").scoreboard.retransmissions
        for ap in testbed.wgtt_aps.values()
        if ap.device.has_session("client0")
    )
    ba_applied = sum(
        ap.stats["ba_forward_applied"] for ap in testbed.wgtt_aps.values()
    )
    return {
        "variant": variant,
        "throughput_mbps": drive.throughput_mbps(),
        "switches": drive.switch_count(),
        "tcp_timeouts": len(drive.tcp_timeout_log()),
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


def run(seed: int = 3, quick: bool = True, jobs: int = 1) -> Dict:
    duration = 8.0 if quick else 10.0
    cells = sweep(
        cell,
        [(variant, duration) for variant in VARIANTS],
        seeds_for(seed, quick),
        jobs,
    )
    columns = (
        "throughput_mbps", "switches", "tcp_timeouts", "mpdu_retransmissions",
        "ba_forward_applied", "dedup_duplicates",
    )
    rows: List[Dict] = [
        {
            "variant": variant,
            **{column: mean(c[column] for c in values) for column in columns},
        }
        for (variant, _), values in cells.items()
    ]
    return {"rows": rows}


def shape(result: Dict) -> List[Claim]:
    """Throughput deltas for the subtler mechanisms are noisy at this
    scale, so the claims target each *mechanism's observable*."""
    rows = {row["variant"]: row for row in result["rows"]}
    paper, multi = rows["paper"], rows["multi-channel"]
    best = max(row["throughput_mbps"] for row in rows.values())
    return [
        Claim("every variant still switches (> 3 switches)",
              all(row["switches"] > 3 for row in rows.values())),
        Claim("every variant still moves data (> 0.5 Mbit/s)",
              all(row["throughput_mbps"] > 0.5 for row in rows.values())),
        # The full design's uplink diversity produces duplicate copies
        # for the controller to remove; on disjoint channels overhearing
        # (and with it the de-dup work) collapses.
        Claim("the full design de-duplicates more than 20 uplink copies",
              paper["dedup_duplicates"] > 20),
        Claim("multi-channel removes under 0.2x the duplicates (overhearing collapses)",
              multi["dedup_duplicates"] < 0.2 * paper["dedup_duplicates"]),
        # §7's argument for staying on one channel.
        Claim("multi-channel costs more than 20 % of TCP throughput",
              multi["throughput_mbps"] < 0.8 * paper["throughput_mbps"]),
        Claim("BA forwarding repairs exchanges in the full design",
              paper["ba_forward_applied"] >= 1),
        Claim("no forwarded BA is applied with BA forwarding off",
              rows["no-ba-forwarding"]["ba_forward_applied"] == 0),
        Claim("the paper configuration is within 20 % of the best variant",
              paper["throughput_mbps"] > 0.8 * best),
    ]


register(
    "ablations", "WGTT design-choice ablations", run, shape=shape,
    paper="multi-channel loses overhearing diversity (§7); fan-out, BA "
    "forwarding and the median metric each support the full design",
)
