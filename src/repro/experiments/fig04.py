"""Figure 4: stock 802.11r in the picocell regime (§2).

Two APs 7.5 m apart, a constant-rate UDP stream to a client driving by
at 5 and at 20 mph, running the *stock* 802.11r roaming policy (which
waits for a 5 s RSSI history before deciding). At 20 mph the handover
fails outright — the client leaves AP1's range before the decision can
be made; at 5 mph the handover happens, but far later than it should,
and capacity is lost either way.
"""

from __future__ import annotations

from typing import Dict, List

from repro.apps.bulk import Drive
from repro.baselines.enhanced_80211r import stock_80211r_config
from repro.experiments.registry import Claim, register
from repro.experiments.runner import sweep
from repro.metrics.capacity import CapacityLossMeter
from repro.scenarios.presets import two_ap_config
from repro.sim.engine import SECOND


def cell(seed: int, speed_mph: float) -> Dict:
    config = two_ap_config(
        seed=seed,
        scheme="baseline",
        client_speeds_mph=[speed_mph],
        roaming=stock_80211r_config(),
    )
    drive = Drive(config, "udp", udp_rate_bps=30e6)
    testbed, sink = drive.testbed, drive.receivers[0]
    meter = CapacityLossMeter(testbed, sample_period_us=20_000)
    duration_s = min(testbed.transit_duration_us() / SECOND, 30.0)
    drive.run(duration_s)
    agent = testbed.clients[0].agent
    handovers = drive.switch_count()
    last_rx_us = sink.arrivals[-1][0] if sink.arrivals else 0
    return {
        "speed_mph": speed_mph,
        "duration_s": duration_s,
        "handover_completed": handovers > 0,
        "handover_time_s": (
            agent.association_log[1][0] / SECOND if handovers else None
        ),
        "failed_handovers": agent.failed_handovers,
        "packets_received": sink.packets_received(),
        "received_seq_series": [(t, seq) for t, seq, _, _ in sink.arrivals],
        "last_reception_s": last_rx_us / SECOND,
        "capacity_loss_mbps": meter.mean_loss_mbps(),
        "accumulated_loss_mbit": meter.mean_loss_mbps() * duration_s,
        "best_capacity_mbps": meter.mean_best_mbps(),
    }


def run(seed: int = 3, quick: bool = True, jobs: int = 1) -> Dict:
    """Both drive-by speeds (``quick`` changes nothing: the two transits
    are the experiment)."""
    cells = sweep(cell, [(20.0,), (5.0,)], (seed,), jobs)
    return {f"{int(speed)}mph": values[0] for (speed,), values in cells.items()}


def shape(result: Dict) -> List[Claim]:
    fast, slow = result["20mph"], result["5mph"]
    # At 20 mph the handover is useless — it either never happens or
    # happens only after the client has already driven past the
    # crossover into (or beyond) AP2's cell, and reception collapses in
    # the tail of the drive either way.
    crossover_s = (13.75 - 4.0) / (20.0 * 0.44704)  # ~1.1 s
    quarter = fast["duration_s"] * 1e6 / 4
    per_quarter = [
        sum(1 for t, _ in fast["received_seq_series"]
            if i * quarter <= t < (i + 1) * quarter)
        for i in range(4)
    ]
    last_quarter = sum(
        1 for t, _ in fast["received_seq_series"] if t >= 3 * quarter
    )
    return [
        Claim("20 mph: the handover fails or comes well after the crossover",
              not fast["handover_completed"]
              or fast["handover_time_s"] > 1.6 * crossover_s),
        Claim("20 mph: reception collapses in the last quarter of the drive",
              last_quarter < 0.35 * max(per_quarter)),
        Claim("5 mph: the handover completes",
              slow["handover_completed"]),
        # Late: well after the two cells' crossover (~40 % of the transit).
        Claim("5 mph: but only after 35 % of the transit",
              slow["handover_completed"]
              and slow["handover_time_s"] > 0.35 * slow["duration_s"]),
        Claim("20 mph: more than 1 Mbit/s of capacity is lost",
              fast["capacity_loss_mbps"] > 1.0),
        Claim("5 mph: more than 0.5 Mbit/s of capacity is lost",
              slow["capacity_loss_mbps"] > 0.5),
    ]


register(
    "fig04", "stock 802.11r handover failure", run, shape=shape,
    paper="20 mph: handover fails, reception ends early; "
    "5 mph: handover completes but late; capacity lost either way",
)
