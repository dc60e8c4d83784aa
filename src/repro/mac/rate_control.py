"""Minstrel-style rate control.

The testbed runs the stock ath9k rate controller (paper §4: "without
modification of the default rate control algorithm"), i.e. Minstrel HT:
per-rate delivery probability is tracked with an EWMA over periodic
update intervals, the data rate with the best probability-weighted
throughput is used, and a fraction of frames sample other rates to keep
the statistics alive.

One controller instance exists per (transmitter, peer) pair, so after a
WGTT switch the incoming AP starts from whatever statistics it last had
for that client — the same staleness a real AP array exhibits.
"""

from __future__ import annotations


import numpy as np

from repro.phy.mcs import MCS_TABLE, Mcs
from repro.sim.engine import Simulator

#: Statistics refresh interval (Minstrel default is 100 ms).
UPDATE_INTERVAL_US = 100_000
#: EWMA weight for old data at each update (Minstrel default 75%).
EWMA_LEVEL = 0.75
#: Fraction of transmissions used to sample non-optimal rates.
SAMPLE_FRACTION = 0.1
#: Optimistic initial delivery probability for untried rates.
INITIAL_PROBABILITY = 0.5
#: The rate a new peer starts at, before any feedback.
INITIAL_MCS_INDEX = 4


class MinstrelRateController:
    """Per-peer transmit rate selection from block-ACK feedback."""

    def __init__(self, sim: Simulator, rng: np.random.Generator):
        self._sim = sim
        self._rng = rng
        self._probability = np.full(len(MCS_TABLE), INITIAL_PROBABILITY)
        self._attempts = np.zeros(len(MCS_TABLE), dtype=np.int64)
        self._successes = np.zeros(len(MCS_TABLE), dtype=np.int64)
        self._tried = np.zeros(len(MCS_TABLE), dtype=bool)
        self._last_update_us = 0
        self._frames_since_sample = 0
        self._current_index = INITIAL_MCS_INDEX
        self._tried[INITIAL_MCS_INDEX] = True

    def select_mcs(self) -> Mcs:
        """Rate for the next aggregate: best throughput, with sampling."""
        self._maybe_update()
        self._frames_since_sample += 1
        if (
            self._frames_since_sample * SAMPLE_FRACTION >= 1.0
            and self._rng.random() < SAMPLE_FRACTION
        ):
            self._frames_since_sample = 0
            return MCS_TABLE[self._sample_index()]
        return MCS_TABLE[self._current_index]

    def feedback(self, mcs: Mcs, attempted: int, acked: int) -> None:
        """Record per-MPDU outcomes of one aggregate at ``mcs``."""
        if mcs.index < 0:
            return  # control/basic rates are not managed
        self._attempts[mcs.index] += attempted
        self._successes[mcs.index] += acked
        self._tried[mcs.index] = True
        self._maybe_update()

    def expected_throughput_bps(self, index: int) -> float:
        return MCS_TABLE[index].data_rate_bps * float(self._probability[index])

    def probability(self, index: int) -> float:
        """The EWMA delivery estimate of one MCS (inspection for tests)."""
        return float(self._probability[index])

    @property
    def current_mcs(self) -> Mcs:
        """The MCS last selected (inspection for tests)."""
        return MCS_TABLE[self._current_index]

    # ------------------------------------------------------------------

    def _sample_index(self) -> int:
        """Pick a lookaround rate.

        Half the samples probe the immediate neighbours of the current
        rate (cheap refinement); the other half probe a uniformly
        random other rate, so the controller can escape to a far-away
        operating point when the channel moves a lot — which in the
        vehicular picocell regime it constantly does.
        """
        if self._rng.random() < 0.5:
            low = max(0, self._current_index - 1)
            high = min(len(MCS_TABLE) - 1, self._current_index + 2)
            choices = [
                i for i in range(low, high + 1) if i != self._current_index
            ]
        else:
            choices = [
                i for i in range(len(MCS_TABLE)) if i != self._current_index
            ]
        if not choices:
            return self._current_index
        return int(self._rng.choice(choices))

    def _maybe_update(self) -> None:
        now = self._sim.now
        if now - self._last_update_us < UPDATE_INTERVAL_US:
            return
        self._last_update_us = now
        fresh = np.divide(
            self._successes,
            self._attempts,
            out=np.full(len(MCS_TABLE), np.nan),
            where=self._attempts > 0,
        )
        tried = ~np.isnan(fresh)
        self._probability[tried] = (
            EWMA_LEVEL * self._probability[tried]
            + (1.0 - EWMA_LEVEL) * fresh[tried]
        )
        self._attempts[:] = 0
        self._successes[:] = 0
        throughput = np.array(
            [self.expected_throughput_bps(i) for i in range(len(MCS_TABLE))]
        )
        # Only rates we have real statistics for may become the primary
        # rate; untried ones must earn their place via sampling first.
        throughput[~self._tried] = -1.0
        self._current_index = int(np.argmax(throughput))
