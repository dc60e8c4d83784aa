"""Experiment recorders, re-homed as obs event-stream consumers.

:class:`RateUsageLog` used to monkey-patch ``device.on_rate_used`` on
every AP; it now subscribes to the tracer's ``ampdu-tx`` events — same
public results methods, no device hooks.  :class:`UplinkLossMeter`
samples transport counters (unchanged).  Crash recovery is recorded by
the invariant checker (:class:`~repro.invariants.CrashRecord`).
"""

from __future__ import annotations

from typing import TYPE_CHECKING, List, Optional, Tuple

from repro.obs.trace import TraceEvent
from repro.sim.engine import SECOND

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.scenarios.testbed import Testbed

__all__ = [
    "RateUsageLog",
    "UplinkLossMeter",
]


class RateUsageLog:
    """Collects transmit-rate usage across all APs of a testbed.

    A thin consumer of the obs event stream: subscribing to ``ampdu-tx``
    flips the tracer active, so every AP device's emit site starts
    reporting (time, MCS, #MPDUs) — the data behind the link
    bit-rate CDF (Figure 16).  Emission carries no randomness and
    mutates nothing, so an instrumented run is bit-identical to a bare
    one.
    """

    def __init__(self, testbed: "Testbed", client_id: Optional[str] = None):
        self._client_filter = client_id
        #: (time_us, ap_id, mcs_index, rate_bps, mpdu_count)
        self.entries: List[Tuple[int, str, int, int, int]] = []
        aps = testbed.wgtt_aps if testbed.wgtt_aps else testbed.baseline_aps
        self._ap_ids = frozenset(aps)
        testbed.sim.obs.trace.subscribe(self._on_event, names=("ampdu-tx",))

    def _on_event(self, event: TraceEvent) -> None:
        tags = event.tags
        node = tags.get("node")
        if node not in self._ap_ids:
            return  # client-side transmission
        if self._client_filter is not None and tags.get("peer") != self._client_filter:
            return
        self.entries.append(
            (
                event.ts,
                str(node),
                int(tags["mcs"]),  # type: ignore[arg-type]
                int(tags["rate_bps"]),  # type: ignore[arg-type]
                int(tags["count"]),  # type: ignore[arg-type]
            )
        )

    def rates_mbps(self, weight_by_mpdus: bool = True) -> List[float]:
        """The observed bit-rate sample set for the CDF."""
        values: List[float] = []
        for _, _, _, rate_bps, count in self.entries:
            repeat = count if weight_by_mpdus else 1
            values.extend([rate_bps / 1e6] * repeat)
        return values


class UplinkLossMeter:
    """Windowed uplink loss per client, from source/sink counters."""

    def __init__(self, sim, source, sink, bin_us: int = SECOND):
        self._sim = sim
        self._source = source
        self._sink = sink
        self.bin_us = bin_us
        self._last_sent = 0
        self._last_received = 0
        #: (time_us, loss_rate) per bin.
        self.series: List[Tuple[int, float]] = []

    def sample(self) -> None:
        """Close the current bin; call once per bin interval."""
        sent = self._source.packets_sent
        received = self._sink.packets_received()
        delta_sent = sent - self._last_sent
        delta_received = received - self._last_received
        self._last_sent, self._last_received = sent, received
        if delta_sent <= 0:
            loss = 0.0
        else:
            loss = max(0.0, 1.0 - delta_received / delta_sent)
        self.series.append((self._sim.now, loss))
