"""Figure 4: stock 802.11r in the picocell regime (§2).

Two APs 7.5 m apart, a constant-rate UDP stream to a client driving by
at 5 and at 20 mph, running the *stock* 802.11r roaming policy (which
waits for a 5 s RSSI history before deciding). At 20 mph the handover
fails outright — the client leaves AP1's range before the decision can
be made; at 5 mph the handover happens, but far later than it should,
and capacity is lost either way.
"""

from __future__ import annotations

from typing import Dict

from repro.baselines.enhanced_80211r import stock_80211r_config
from repro.metrics.capacity import CapacityLossMeter
from repro.scenarios.presets import two_ap_config
from repro.sim.engine import SECOND
from repro.experiments.registry import register_experiment


def run_speed(seed: int, speed_mph: float, udp_rate_bps: float = 30e6) -> Dict:
    from repro.scenarios.testbed import Testbed

    config = two_ap_config(
        seed=seed,
        scheme="baseline",
        client_speeds_mph=[speed_mph],
        roaming=stock_80211r_config(),
    )
    testbed = Testbed(config)
    meter = CapacityLossMeter(testbed, sample_period_us=20_000)
    source, sink = testbed.add_downlink_udp_flow(0, rate_bps=udp_rate_bps)
    source.start()
    duration_s = min(testbed.transit_duration_us() / SECOND, 30.0)
    testbed.run_seconds(duration_s)
    agent = testbed.clients[0].agent
    handovers = max(0, len(agent.association_log) - 1)
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


@register_experiment("fig04", "stock 802.11r handover failure")
def run(seed: int = 3, quick: bool = False) -> Dict:
    """Both drive-by speeds; the paper's qualitative claims are that the
    20 mph handover fails and the 5 mph one is late, with capacity loss
    larger at the slower speed (more time spent on the wrong AP)."""
    results = {
        "20mph": run_speed(seed, 20.0),
        "5mph": run_speed(seed, 5.0),
    }
    return results
