"""Table 5: web page load time at different driving speeds.

A 2.1 MB page over six parallel connections, loaded while driving past
the array. The paper: ~4.5 s with WGTT at every speed; 15–18 s with
Enhanced 802.11r at 5–10 mph and never completing at 15+ mph.
"""

from __future__ import annotations

from typing import Dict, List

from repro.apps.web import PageLoad
from repro.experiments.common import SCHEMES
from repro.experiments.registry import Claim, register
from repro.experiments.runner import sweep
from repro.scenarios.testbed import Testbed, TestbedConfig
from repro.sim.engine import SECOND

SPEEDS = (5.0, 10.0, 15.0, 20.0)


def cell(seed: int, speed_mph: float, scheme: str) -> float:
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


def run(seed: int = 3, quick: bool = True, jobs: int = 1) -> Dict:
    speeds = (5.0, 15.0) if quick else SPEEDS
    cells = sweep(
        cell,
        [(speed, scheme) for speed in speeds for scheme in SCHEMES],
        (seed,),
        jobs,
    )
    rows: List[Dict] = [
        {
            "speed_mph": speed,
            **{f"{scheme}_s": cells[speed, scheme][0] for scheme in SCHEMES},
        }
        for speed in speeds
    ]
    return {"rows": rows}


def shape(result: Dict) -> List[Claim]:
    rows = result["rows"]
    wgtt_times = [row["wgtt_s"] for row in rows]
    finite_base = [
        row["baseline_s"] for row in rows if row["baseline_s"] != float("inf")
    ]
    return [
        Claim("WGTT completes the page at every speed",
              all(t != float("inf") for t in wgtt_times)),
        Claim("WGTT's load time is roughly flat (within 3x across speeds)",
              max(wgtt_times) / min(wgtt_times) < 3.0),
        Claim("the baseline loads the page slower at 10 mph and above",
              all(row["baseline_s"] > row["wgtt_s"]
                  for row in rows if row["speed_mph"] >= 10.0)),
        # The same too-strong 5 mph baseline as Figure 13's gain
        # (EXPERIMENTS.md; ROADMAP 2(b) owns the question).
        Claim("the baseline loads the page slower at 5 mph too",
              all(row["baseline_s"] > row["wgtt_s"]
                  for row in rows if row["speed_mph"] < 10.0),
              expected=False),
        Claim("the baseline's slowest finite load is more than 1.3x WGTT's slowest",
              not finite_base or max(finite_base) > 1.3 * max(wgtt_times)),
    ]


register(
    "tab05", "web page load time", run, shape=shape, full=True,
    paper="WGTT ~4.5 s at every speed; 802.11r 15-18 s at 5-10 mph and "
    "infinite at 15+ mph",
)
