"""Table 2: switching accuracy of WGTT vs Enhanced 802.11r.

Accuracy = fraction of time the client is attached to the AP with the
maximal instantaneous ESNR (oracle-sampled, non-perturbing). The paper:
WGTT > 90 % for both TCP and UDP; Enhanced 802.11r ~20 %.
"""

from __future__ import annotations

from typing import Dict, List

from repro.apps.bulk import Drive
from repro.experiments.common import PROTOCOLS, SCHEMES
from repro.experiments.registry import Claim, register
from repro.experiments.runner import sweep
from repro.metrics.accuracy import SwitchingAccuracyMeter
from repro.scenarios.testbed import TestbedConfig


def cell(seed: int, protocol: str, scheme: str, duration_s: float) -> float:
    config = TestbedConfig(seed=seed, scheme=scheme, client_speeds_mph=[15.0])
    drive = Drive(config, protocol)
    meter = SwitchingAccuracyMeter(drive.testbed, sample_period_us=20_000)
    drive.run(duration_s)
    return meter.accuracy()


def run(seed: int = 3, quick: bool = True, jobs: int = 1) -> Dict:
    duration = 6.0 if quick else 10.0
    cells = sweep(
        cell,
        [(protocol, scheme, duration) for protocol in PROTOCOLS for scheme in SCHEMES],
        (seed,),
        jobs,
    )
    rows = [
        {
            "protocol": protocol,
            **{
                f"{scheme}_pct": 100.0 * cells[protocol, scheme, duration][0]
                for scheme in SCHEMES
            },
        }
        for protocol in PROTOCOLS
    ]
    return {"rows": rows}


def shape(result: Dict) -> List[Claim]:
    rows = {row["protocol"]: row for row in result["rows"]}
    return [
        Claim("WGTT is on the oracle-best AP more than 70 % of the time "
              "(paper: > 90 %)",
              all(row["wgtt_pct"] > 70.0 for row in rows.values())),
        # Our baseline's UDP accuracy can exceed the paper's ~19 % on
        # lucky seeds — narrow cells make "nearest AP" right more often;
        # the ordering and the WGTT level are the robust claims.
        Claim("WGTT's accuracy is more than 1.15x the baseline's",
              all(row["wgtt_pct"] > 1.15 * row["baseline_pct"]
                  for row in rows.values())),
        Claim("the baseline's TCP accuracy is under 55 % (paper: ~20 %)",
              rows["tcp"]["baseline_pct"] < 55.0),
    ]


register(
    "tab02", "switching accuracy", run, shape=shape, full=True,
    paper="WGTT 90.1% (TCP) / 91.4% (UDP); 802.11r 20.2% / 18.7%",
)
