"""Experiment recorders, re-homed as obs event-stream consumers.

:class:`RateUsageLog` used to monkey-patch ``device.on_rate_used`` on
every AP; it now subscribes to the tracer's ``ampdu-tx`` events — same
public results methods, no device hooks.  :class:`UplinkLossMeter`
samples transport counters (unchanged).  :class:`FailoverAudit` and
:class:`HaAudit` join the fault injector's trace with controller
timelines (unchanged joins, now living beside the event stream they
describe).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Dict, List, Optional, Tuple

from repro.obs.trace import TraceEvent
from repro.sim.engine import MS, SECOND

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.scenarios.testbed import Testbed

__all__ = [
    "RateUsageLog",
    "UplinkLossMeter",
    "CrashRecovery",
    "FAILOVER_DEADLINE_US",
    "FailoverAudit",
    "HaAudit",
]

#: Recovery budget: a client whose serving AP dies mid-drive should
#: be transmitting again from a live AP within this long of the
#: crash.  With a 20 ms heartbeat and miss limit 3, detection takes
#: at most ~80 ms, leaving ~20 ms for the failover handshake.
FAILOVER_DEADLINE_US = 100 * MS


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


@dataclass
class CrashRecovery:
    """One AP crash and the recovery (or not) of each affected client."""

    crash_us: int
    ap_id: str
    #: Clients the dead AP was serving at crash time.
    affected_clients: List[str]
    #: (client_id, latency_us, new_ap) per recovered client — latency is
    #: measured from the *crash instant*, so it includes heartbeat
    #: detection lag, not just the failover handshake.
    recoveries: List[Tuple[str, int, str]]
    #: Clients with no completed failover/switch after the crash.
    unrecovered: List[str]

    def latencies_us(self) -> List[int]:
        return [latency for _, latency, _ in self.recoveries]


class FailoverAudit:
    """End-to-end crash-to-recovery audit for a finished chaos run.

    A client "recovers" from a crash when the controller's serving
    timeline first moves it to a *different, live* AP after the crash
    instant — whether through the emergency failover handshake or (for
    crashes of non-serving APs) not at all.  Deadline verdicts compare
    the crash-to-recovery latency against
    :data:`FAILOVER_DEADLINE_US`.
    """

    def __init__(self, testbed: "Testbed"):
        if testbed.controller is None:
            raise ValueError(
                "FailoverAudit reads tb.controller: one WGTT region only"
            )
        self._testbed = testbed
        self._controller = testbed.controller

    # ------------------------------------------------------------------
    # joins
    # ------------------------------------------------------------------

    def _timeline(self) -> List[Tuple[int, str, str]]:
        """The serving timeline, merged across an HA failover.

        After a standby promotion the promoted controller's timeline
        carries the post-takeover truth; the merge keeps recoveries
        visible to the crash joins no matter which controller drove
        them."""
        timeline = list(self._controller.serving_timeline)
        standby = getattr(self._testbed, "standby", None)
        if standby is not None:
            timeline.extend(standby.serving_timeline)
            timeline.sort(key=lambda entry: entry[0])
        return timeline

    def _serving_at(self, client_id: str, time_us: int) -> Optional[str]:
        """The AP serving ``client_id`` just before ``time_us``."""
        current: Optional[str] = None
        for at_us, client, ap_id in self._timeline():
            if at_us > time_us:
                break
            if client == client_id:
                current = ap_id
        return current

    def _clients(self) -> List[str]:
        return [c.client_id for c in self._testbed.clients]

    def crash_recoveries(self) -> List[CrashRecovery]:
        """One :class:`CrashRecovery` per executed crash, in order."""
        injector = self._testbed.fault_injector
        crash_events = injector.crash_times() if injector is not None else []
        out: List[CrashRecovery] = []
        timeline = self._timeline()
        for crash_us, ap_id in crash_events:
            affected = [
                client
                for client in self._clients()
                if self._serving_at(client, crash_us) == ap_id
            ]
            recoveries: List[Tuple[str, int, str]] = []
            unrecovered: List[str] = []
            for client in affected:
                moved = next(
                    (
                        (at_us, new_ap)
                        for at_us, c, new_ap in timeline
                        if c == client and at_us > crash_us and new_ap != ap_id
                    ),
                    None,
                )
                if moved is None:
                    unrecovered.append(client)
                else:
                    at_us, new_ap = moved
                    recoveries.append((client, at_us - crash_us, new_ap))
            out.append(
                CrashRecovery(
                    crash_us=crash_us,
                    ap_id=ap_id,
                    affected_clients=affected,
                    recoveries=recoveries,
                    unrecovered=unrecovered,
                )
            )
        return out

    # ------------------------------------------------------------------
    # summary statistics
    # ------------------------------------------------------------------

    def failover_latencies_ms(self) -> List[float]:
        """Crash-to-recovery latency per recovered (crash, client)."""
        return [
            latency / 1_000.0
            for recovery in self.crash_recoveries()
            for latency in recovery.latencies_us()
        ]

    def deadline_violations(self) -> int:
        """Recoveries later than the deadline, plus unrecovered clients
        on crashes that actually affected someone."""
        violations = 0
        for recovery in self.crash_recoveries():
            violations += sum(
                1
                for latency in recovery.latencies_us()
                if latency > FAILOVER_DEADLINE_US
            )
            violations += len(recovery.unrecovered)
        return violations

    def post_restore_duplicates(self) -> int:
        """Uplink copies recognised as duplicates *after* a controller
        restore (standby promotion), thanks to the dedup key window the
        checkpoint carried over.  Each one is a duplicate the server
        would have seen had the window not been shipped.  Zero when no
        promotion happened (or HA is off)."""
        standby = getattr(self._testbed, "standby", None)
        if standby is None or not standby.promoted:
            return 0
        return standby.dedup.duplicates

    def summary(self) -> dict:
        recoveries = self.crash_recoveries()
        latencies = self.failover_latencies_ms()
        return {
            "crashes": len(recoveries),
            "affected_client_crashes": sum(
                1 for r in recoveries if r.affected_clients
            ),
            "recovered": sum(len(r.recoveries) for r in recoveries),
            "unrecovered": sum(len(r.unrecovered) for r in recoveries),
            "deadline_violations": self.deadline_violations(),
            "deadline_ms": FAILOVER_DEADLINE_US / 1_000.0,
            "mean_failover_ms": (
                sum(latencies) / len(latencies) if latencies else None
            ),
            "max_failover_ms": max(latencies) if latencies else None,
            "post_restore_duplicates": self.post_restore_duplicates(),
        }


class HaAudit:
    """Controller-outage audit for an HA run.

    Joins the injector's ``ctrl-crash`` trace with the standby's
    promotion instant, the AP array's re-home/hold counters, and the
    region's shipping and ingress accounting into the ext_ha headline
    numbers: control-plane recovery latency, duplicate leakage, and
    explicit (never silent) packet loss.
    """

    def __init__(self, testbed: "Testbed"):
        if getattr(testbed, "standby", None) is None:
            raise ValueError(
                "HaAudit reads the region: one WGTT region with ha_enabled only"
            )
        self._testbed = testbed
        (self._region,) = testbed.shards
        self._standby = testbed.standby

    def controller_crash_times(self) -> List[int]:
        injector = self._testbed.fault_injector
        if injector is None:
            return []
        return [t for t, _ in injector.controller_crash_times()]

    def promotion_latency_us(self) -> Optional[int]:
        """First controller crash → standby promotion, or None."""
        crashes = self.controller_crash_times()
        promoted_at = self._standby.promoted_at_us
        if not crashes or promoted_at is None:
            return None
        return promoted_at - crashes[0]

    def clients_recovered(self) -> bool:
        """Every client is registered at the active controller with a
        live serving AP."""
        active = self._region.active_controller()
        if active is None:
            return False
        for client in self._testbed.clients:
            state = active.client_state(client.client_id)
            if state is None:
                return False
            ap = self._testbed.wgtt_aps.get(state.serving_ap)
            if ap is None or not ap.alive:
                return False
        return True

    def recovery_complete_us(self) -> Optional[int]:
        """When the *last* client re-registered at the promoted
        controller: the max over clients of each client's **first**
        serving-timeline entry at/after the promotion instant.  Later
        entries are ordinary mobility switches, not recovery — counting
        them would grow the latency with drive time."""
        promoted_at = self._standby.promoted_at_us
        if promoted_at is None or not self.clients_recovered():
            return None
        first_entry: Dict[str, int] = {}
        for at_us, client, _ in self._standby.serving_timeline:
            if at_us >= promoted_at and client not in first_entry:
                first_entry[client] = at_us
        if not first_entry:
            return promoted_at
        return max(first_entry.values())

    def overflow_drops(self) -> int:
        """Cyclic-queue slots destroyed while undelivered, array-wide."""
        return sum(
            ap.overflow_drops() for ap in self._testbed.wgtt_aps.values()
        )

    def summary(self) -> dict:
        aps = self._testbed.wgtt_aps.values()
        crashes = self.controller_crash_times()
        latency = self.promotion_latency_us()
        recovery_at = self.recovery_complete_us()
        return {
            "controller_crashes": len(crashes),
            "promoted": self._standby.promoted,
            "promotion_latency_ms": (
                latency / 1_000.0 if latency is not None else None
            ),
            "recovery_latency_ms": (
                (recovery_at - crashes[0]) / 1_000.0
                if recovery_at is not None and crashes
                else None
            ),
            "clients_recovered": self.clients_recovered(),
            "checkpoints_shipped": self._region.checkpoints_shipped,
            "checkpoint_bytes": self._region.checkpoint_bytes,
            "lost_downlink": self._region.lost_downlink,
            "aps_rehomed": sum(ap.stats["rehomed"] for ap in aps),
            "hold_buffered": sum(ap.stats["hold_buffered"] for ap in aps),
            "hold_dropped": sum(ap.stats["hold_dropped"] for ap in aps),
            "hold_flushed": sum(ap.stats["hold_flushed"] for ap in aps),
            "overflow_drops": self.overflow_drops(),
            "post_restore_duplicates": (
                self._standby.dedup.duplicates
                if self._standby.promoted
                else 0
            ),
        }
