"""Figure 10: ESNR heatmap of the road, per AP.

Samples mean ESNR on a grid along (x) and across (y) the road for each
AP, with fading averaged out, reproducing the coverage heatmap: cells
centred on each AP's boresight, overlapping 6–10 m with neighbours.
"""

from __future__ import annotations

from typing import Dict, List

import numpy as np

from repro.phy.esnr import effective_snr_db
from repro.scenarios.testbed import Testbed, TestbedConfig
from repro.experiments.registry import register_experiment


@register_experiment("fig10", "ESNR coverage heatmap")
def run(
    seed: int = 3,
    x_step_m: float = 1.0,
    y_values: tuple = (0.0, 1.75, 3.5),
    usable_esnr_db: float = 8.5,
    quick: bool = False,
) -> Dict:
    """``usable_esnr_db`` defines coverage: ~8.5 dB sustains MCS2-3,
    a sensible "the link works here" line in this link budget; it
    reproduces the 6-10 m adjacent-AP overlap of the paper's heatmap."""
    config = TestbedConfig(seed=seed, scheme="wgtt", client_speeds_mph=[0.0])
    testbed = Testbed(config)
    client = testbed.clients[0]
    track = client.track
    xs = list(np.arange(0.0, testbed.road.length_m, x_step_m))
    heatmap: Dict[str, List[List[float]]] = {}
    # Move the (static) client across the grid by editing its track
    # start position; fading is bypassed via the mean-SNR term.
    for ap_id in testbed.ap_ids:
        rows = []
        for y in y_values:
            row = []
            for x in xs:
                track.start_x = x
                # use the lane offset for y by adjusting... the track's
                # road lane y is fixed; emulate the across-road position
                # via direction choice? Simpler: temporary road tweak.
                original = track.road
                from repro.mobility.road import Road

                track.road = Road(
                    length_m=original.length_m,
                    near_lane_y=y,
                    far_lane_y=original.far_lane_y,
                )
                # The track was mutated at a fixed sim time, so the
                # channel's time-keyed geometry memos are stale.
                testbed.channel.invalidate_geometry()
                link = testbed.channel.link(ap_id, client.client_id)
                mean_snr = link.mean_snr_db(testbed.sim.now, tx_id=ap_id)
                flat = np.full(56, mean_snr)
                row.append(effective_snr_db(flat))
                track.road = original
            rows.append(row)
        heatmap[ap_id] = rows

    # Coverage span per AP at the kerbside row (y = 0).
    coverage: Dict[str, tuple] = {}
    for ap_id in testbed.ap_ids:
        usable = [
            x for x, esnr in zip(xs, heatmap[ap_id][0]) if esnr >= usable_esnr_db
        ]
        coverage[ap_id] = (min(usable), max(usable)) if usable else (None, None)
    overlaps = []
    ap_list = sorted(testbed.ap_ids, key=lambda a: int(a[2:]))
    for left, right in zip(ap_list, ap_list[1:]):
        l0, l1 = coverage[left]
        r0, r1 = coverage[right]
        if None in (l0, l1, r0, r1):
            overlaps.append(0.0)
        else:
            overlaps.append(max(0.0, min(l1, r1) - max(l0, r0)))
    return {
        "xs": xs,
        "y_values": list(y_values),
        "heatmap": heatmap,
        "coverage": coverage,
        "overlaps_m": overlaps,
    }
