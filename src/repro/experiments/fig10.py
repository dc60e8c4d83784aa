"""Figure 10: ESNR heatmap of the road, per AP.

Samples mean ESNR on a grid along (x) and across (y) the road for each
AP, with fading averaged out, reproducing the coverage heatmap: cells
centred on each AP's boresight, overlapping 6–10 m with neighbours.
"""

from __future__ import annotations

from typing import Dict, List

import numpy as np

from repro.experiments.registry import Claim, register
from repro.mobility.road import Road
from repro.phy.esnr import effective_snr_db
from repro.scenarios.testbed import Testbed, TestbedConfig

X_STEP_M = 1.0
Y_VALUES = (0.0, 1.75, 3.5)
#: Coverage line: ~8.5 dB sustains MCS2-3, a sensible "the link works
#: here" in this link budget; it reproduces the 6-10 m adjacent-AP
#: overlap of the paper's heatmap.
USABLE_ESNR_DB = 8.5


def run(seed: int = 3, quick: bool = True, jobs: int = 1) -> Dict:
    """One static sampling grid (``quick`` and ``jobs`` change nothing)."""
    config = TestbedConfig(seed=seed, scheme="wgtt", client_speeds_mph=[0.0])
    testbed = Testbed(config)
    client = testbed.clients[0]
    track = client.track
    original = track.road
    xs = list(np.arange(0.0, testbed.road.length_m, X_STEP_M))
    heatmap: Dict[str, List[List[float]]] = {}
    # Move the (static) client across the grid by editing its track:
    # start position for x, a road whose near lane sits at y for the
    # across-road position; fading is bypassed via the mean-SNR term.
    for ap_id in testbed.ap_ids:
        rows = []
        for y in Y_VALUES:
            row = []
            for x in xs:
                track.start_x = x
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
            x for x, esnr in zip(xs, heatmap[ap_id][0]) if esnr >= USABLE_ESNR_DB
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
        "y_values": list(Y_VALUES),
        "heatmap": heatmap,
        "coverage": coverage,
        "overlaps_m": overlaps,
    }


def shape(result: Dict) -> List[Claim]:
    coverage = result["coverage"]
    ap_ids = sorted(coverage, key=lambda a: int(a[2:]))
    ap0 = result["heatmap"]["ap0"]
    return [
        Claim("every AP has a usable span",
              all(coverage[ap][0] is not None for ap in ap_ids)),
        Claim("each span is centred within 3 m of its AP's mount",
              all(
                  coverage[ap][0] is not None
                  and abs(sum(coverage[ap]) / 2 - (10.0 + 7.5 * i)) < 3.0
                  for i, ap in enumerate(ap_ids)
              )),
        Claim("adjacent coverage overlaps by 4-12 m (paper: 6-10 m)",
              all(4.0 <= overlap <= 12.0 for overlap in result["overlaps_m"])),
        # The beam is aimed at the kerb.
        Claim("ESNR is no lower kerbside than across the road",
              max(ap0[0]) >= max(ap0[-1]) - 1.0),
    ]


register(
    "fig10", "ESNR coverage heatmap", run, shape=shape,
    paper="cells centred per AP; adjacent coverage overlaps 6-10 m",
)
