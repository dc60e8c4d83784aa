"""Channel-capacity loss (paper Figures 4 and 21).

The capacity loss of a handover scheme at an instant is the gap between
the best achievable link rate (the max over APs of the delivery-
probability-weighted PHY rate) and the rate achievable through the AP
actually serving the client. Figure 4 integrates this over a drive for
stock 802.11r; Figure 21 evaluates it for the WGTT selector as a
function of the selection window W, by replaying recorded ESNR traces.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence, Tuple

from repro.phy.per import best_rate_bps
from repro.scenarios.testbed import Testbed
from repro.sim.engine import MS, Timer


class CapacityLossMeter:
    """Samples the first client's best-vs-serving achievable rate during
    a live run."""

    def __init__(
        self,
        testbed: Testbed,
        sample_period_us: int = 20 * MS,
    ):
        self._testbed = testbed
        self._period = sample_period_us
        #: (time_us, best_rate_bps, serving_rate_bps)
        self.samples: List[Tuple[int, float, float]] = []
        self._timer = Timer(testbed.sim, self._sample)
        self._timer.start(sample_period_us)

    def _sample(self) -> None:
        testbed, now = self._testbed, self._testbed.sim.now
        client_id = testbed.clients[0].client_id
        serving = testbed.serving_ap_of(0)
        best_rate, serving_rate = 0.0, 0.0
        for ap_id in testbed.ap_ids:
            link = testbed.channel.link(ap_id, client_id)
            rate = best_rate_bps(
                link.probe_subcarrier_snr_db(now, tx_id=ap_id)
            )
            best_rate = max(best_rate, rate)
            if ap_id == serving:
                serving_rate = rate
        self.samples.append((now, best_rate, serving_rate))
        self._timer.start(self._period)

    def mean_loss_mbps(self) -> float:
        """Average capacity loss over the sampled run, in Mbit/s."""
        if not self.samples:
            return 0.0
        losses = [(best - serving) for _, best, serving in self.samples]
        return sum(losses) / len(losses) / 1e6

    def mean_best_mbps(self) -> float:
        if not self.samples:
            return 0.0
        return sum(best for _, best, _ in self.samples) / len(self.samples) / 1e6


def selector_capacity_loss_mbps(
    esnr_trace: Dict[str, Sequence[Tuple[int, float]]],
    rate_trace: Dict[str, Sequence[Tuple[int, float]]],
    window_us: int,
) -> float:
    """Emulation-based window-size study (paper §5.3.1, Figure 21).

    Replays recorded per-AP ESNR readings through the median-window
    selector at a given W, deciding every
    :data:`~repro.core.controller.SELECTION_PERIOD_US` as the controller
    does, and scores the chosen AP against the best achievable rate at
    each decision instant. ``esnr_trace`` maps AP id to (time_us,
    esnr_db) readings; ``rate_trace`` maps AP id to (time_us,
    achievable_rate_bps) ground truth sampled densely.
    """
    from repro.core.controller import SELECTION_PERIOD_US
    from repro.core.selection import ApSelector

    selector = ApSelector(window_us)
    events: List[Tuple[int, str, float]] = []
    for ap_id, series in esnr_trace.items():
        for time_us, esnr in series:
            events.append((time_us, ap_id, esnr))
    events.sort()
    if not events:
        return 0.0

    def rate_at(ap_id: str, time_us: int) -> float:
        series = rate_trace[ap_id]
        # Series are dense and sorted: binary search for nearest.
        lo, hi = 0, len(series) - 1
        while lo < hi:
            mid = (lo + hi) // 2
            if series[mid][0] < time_us:
                lo = mid + 1
            else:
                hi = mid
        return series[lo][1]

    start = events[0][0]
    end = events[-1][0]
    serving: Optional[str] = None
    loss_sum, count = 0.0, 0
    index = 0
    for now in range(start, end, SELECTION_PERIOD_US):
        while index < len(events) and events[index][0] <= now:
            _, ap_id, esnr = events[index]
            selector.record("c", ap_id, events[index][0], esnr)
            index += 1
        choice = selector.best_ap("c", now, incumbent=serving)
        if choice is not None:
            serving = choice
        if serving is None:
            continue
        best = max(rate_at(ap_id, now) for ap_id in rate_trace)
        loss_sum += best - rate_at(serving, now)
        count += 1
    if count == 0:
        return 0.0
    return loss_sum / count / 1e6
