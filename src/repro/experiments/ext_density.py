"""Extension experiment: throughput vs AP deployment density.

The paper's framing (§1, Cooper's law) is that capacity comes from
shrinking cells; §7 proposes larger deployments. This sweep varies the
AP spacing over the same road length and measures what a WGTT client
actually gets — the densification curve the paper motivates but never
plots. Denser arrays keep the client nearer to *some* boresight and
deepen the fan-out/diversity; beyond a point, extra APs on one channel
add beacon overhead and switching churn without new capacity.
"""

from __future__ import annotations

from typing import Dict, List, Optional

from repro.experiments.common import mean, seeds_for
from repro.experiments.runner import run_grid
from repro.scenarios.testbed import Testbed, TestbedConfig
from repro.experiments.registry import register_experiment

#: Spacings to sweep; the paper's testbed is 7.5 m.
SPACINGS_M = (5.0, 7.5, 10.0, 15.0)
ROAD_SPAN_M = 52.5  # the default testbed's AP0..AP7 extent


def run_spacing(
    seed: int, spacing_m: float, speed_mph: float = 15.0,
    duration_s: float = 8.0,
) -> Dict:
    num_aps = max(2, int(round(ROAD_SPAN_M / spacing_m)) + 1)
    config = TestbedConfig(
        seed=seed,
        scheme="wgtt",
        num_aps=num_aps,
        ap_spacing_m=spacing_m,
        client_speeds_mph=[speed_mph],
    )
    testbed = Testbed(config)
    sender, _receiver = testbed.add_downlink_tcp_flow(0)
    sender.start()
    testbed.run_seconds(duration_s)
    return {
        "spacing_m": spacing_m,
        "num_aps": num_aps,
        "throughput_mbps": sender.throughput_mbps(testbed.sim.now),
        "switches_per_s": len(testbed.controller.coordinator.history)
        / duration_s,
    }


@register_experiment("ext_density", "throughput vs AP deployment density")
def run(
    quick: bool = True, speed_mph: float = 15.0, jobs: Optional[int] = None
) -> Dict:
    seeds = seeds_for(quick)
    grid = [
        (seed, spacing, speed_mph)
        for spacing in SPACINGS_M
        for seed in seeds
    ]
    results = iter(run_grid(run_spacing, grid, jobs=jobs))
    rows: List[Dict] = []
    for spacing in SPACINGS_M:
        cells = [next(results) for _ in seeds]
        rows.append(
            {
                "spacing_m": spacing,
                "num_aps": cells[0]["num_aps"],
                "throughput_mbps": mean(c["throughput_mbps"] for c in cells),
                "switches_per_s": mean(c["switches_per_s"] for c in cells),
            }
        )
    return {"rows": rows}
