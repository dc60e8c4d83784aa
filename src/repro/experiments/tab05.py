"""Table 5: web page load time at different driving speeds.

A 2.1 MB page over six parallel connections, loaded while driving past
the array. The paper: ~4.5 s with WGTT at every speed; 15–18 s with
Enhanced 802.11r at 5–10 mph and never completing at 15+ mph.
"""

from __future__ import annotations

from typing import Dict, List

from repro.apps.web import PageLoad
from repro.scenarios.testbed import Testbed, TestbedConfig
from repro.sim.engine import SECOND
from repro.experiments.registry import register_experiment

SPEEDS = (5.0, 10.0, 15.0, 20.0)


def run_cell(seed: int, scheme: str, speed_mph: float) -> float:
    """Average load time over back-to-back page loads during the
    transit (the paper repeats the fetch 10 times and averages).
    Returns infinity when no load completes — the paper's "∞" cells.
    """
    config = TestbedConfig(
        seed=seed, scheme=scheme, client_speeds_mph=[speed_mph]
    )
    testbed = Testbed(config)
    transit_s = min(testbed.transit_duration_us() / SECOND, 30.0)
    step = 0.25
    elapsed = 0.0
    times: List[float] = []
    page = PageLoad(testbed)
    while elapsed < transit_s:
        testbed.run_seconds(step)
        elapsed += step
        if page.complete:
            times.append(page.load_time_s())
            page = PageLoad(testbed)  # immediately load the next copy
    if not times:
        return float("inf")
    if not page.complete:
        # The final, unfinished load is censored at the transit end; it
        # is at least this slow, so include it as a lower bound rather
        # than silently surviving on the fast loads only.
        censored_s = (testbed.sim.now - page.started_us) / SECOND
        if censored_s > 0.5 * step:
            times.append(censored_s)
    return sum(times) / len(times)


@register_experiment("tab05", "web page load time")
def run(seed: int = 3, quick: bool = False) -> Dict:
    speeds = (5.0, 15.0) if quick else SPEEDS
    rows: List[Dict] = []
    for speed in speeds:
        rows.append(
            {
                "speed_mph": speed,
                "wgtt_s": run_cell(seed, "wgtt", speed),
                "baseline_s": run_cell(seed, "baseline", speed),
            }
        )
    return {"rows": rows}
