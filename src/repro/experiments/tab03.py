"""Table 3: link-layer (block) ACK collision rate.

Every WGTT AP that decodes an uplink frame answers with a block ACK, so
BAs can collide at the client. The paper measures uplink retransmission
rate as an upper bound and finds it negligible — microsecond response
jitter plus directional side-lobe discrimination keep simultaneous BAs
from colliding.

The simulator can observe the collision event *directly*: two BA frames
addressed to the client overlapping on the air. We report that rate
alongside the retransmission-based upper bound (which in a fading
simulation also contains whole-aggregate fades, not just collisions).
"""

from __future__ import annotations

from typing import Dict, List

from repro.core.config import BSSID
from repro.experiments.registry import Claim, register
from repro.experiments.runner import sweep
from repro.mac.frames import BlockAckFrame
from repro.scenarios.testbed import Testbed, TestbedConfig


def cell(seed: int, rate_mbps: float) -> Dict:
    # The paper's measurement isolates ACK collisions from channel
    # loss: a client with an excellent link (parked near a boresight)
    # blasting uplink UDP.
    config = TestbedConfig(
        seed=seed,
        scheme="wgtt",
        client_speeds_mph=[0.0],
        client_start_x_m=10.0,
    )
    testbed = Testbed(config)

    # Observe every BA headed for the client directly on the medium.
    ba_intervals: List[tuple] = []
    original_transmit = testbed.medium.transmit

    def watching_transmit(frame):
        tx = original_transmit(frame)
        if isinstance(frame, BlockAckFrame) and frame.ra == "client0":
            ba_intervals.append((tx.start_us, tx.end_us))
        return tx

    testbed.medium.transmit = watching_transmit

    source, _sink = testbed.add_uplink_udp_flow(0, rate_bps=rate_mbps * 1e6)
    source.start()
    testbed.run_seconds(8.0)

    ba_intervals.sort()
    collisions = sum(
        1
        for (s1, e1), (s2, _e2) in zip(ba_intervals, ba_intervals[1:])
        if s2 < e1
    )
    device = testbed.clients[0].device
    session = device.session(BSSID)
    sent = device.stats["mpdus_sent"]
    ampdus = max(device.stats["ampdus_sent"], 1)
    return {
        "rate_mbps": rate_mbps,
        "mpdus_sent": sent,
        "ba_responses": len(ba_intervals),
        "ba_collision_rate_pct": 100.0 * collisions / max(len(ba_intervals), 1),
        "retransmission_rate_pct": 100.0
        * session.scoreboard.retransmissions
        / max(sent, 1),
        "no_ba_rate_pct": 100.0 * device.stats["ba_timeouts"] / ampdus,
    }


def run(seed: int = 3, quick: bool = True, jobs: int = 1) -> Dict:
    rates = [70, 90] if quick else [70, 80, 90]
    cells = sweep(cell, [(rate,) for rate in rates], (seed,), jobs)
    return {"rows": [values[0] for values in cells.values()]}


def shape(result: Dict) -> List[Claim]:
    rows = result["rows"]
    return [
        # Direct observation: response-slot sensing + jitter works.
        Claim("under 1 % of client-bound block ACKs overlap on the air",
              all(row["ba_collision_rate_pct"] < 1.0 for row in rows)),
        Claim("more than 500 block ACKs were observed at every load",
              all(row["ba_responses"] > 500 for row in rows)),
        Claim("the load was really offered (> 5 000 MPDUs sent)",
              all(row["mpdus_sent"] > 5_000 for row in rows)),
    ]


register(
    "tab03", "block-ACK collision rate", run, shape=shape, full=True,
    paper="collision-attributable loss is negligible "
    "(paper: 0.001-0.004% of frames)",
)
