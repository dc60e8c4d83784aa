"""Executes a :class:`WorkloadPlan` against a live testbed.

The driver is deliberately dumb: every decision (who arrives when,
how long they stay, what they transfer) was drawn into the plan before
the run started.  At execution time it only wires testbed primitives —
:meth:`Testbed.add_client`, flow attachment, :meth:`depart_client`,
:meth:`retire_client` — and keeps bounded accounting.

The one piece of genuine runtime logic is departure-under-failure: a
rider can leave while the controller is crashed, in which case the
protocol-level deregistration cannot be delivered.  The local teardown
(radio off, timers stopped, port scheduled for removal) happens
immediately; the deregistration parks in a pending set that a retry
timer drains once a live controller is back.  Without the retry, every
departure during controller downtime would leak selection windows and
index cursors forever — exactly the class of slow leak the soak exists
to catch.
"""

from __future__ import annotations

from typing import Dict, List, Optional, TYPE_CHECKING

from repro.sim.engine import MS, Timer
from repro.soak.workload import ClientSession, WorkloadPlan

if TYPE_CHECKING:
    from repro.scenarios.testbed import Testbed
    from repro.transport.udp import UdpSink, UdpSource

#: How often pending (controller-was-down) deregistrations are retried.
DEREG_RETRY_INTERVAL_US = 500 * MS


class _ActiveRider:
    """Book-keeping for one admitted client."""

    __slots__ = ("session", "sources", "sinks", "stop_timers")

    def __init__(self, session: ClientSession):
        self.session = session
        self.sources: List["UdpSource"] = []
        self.sinks: List["UdpSink"] = []
        self.stop_timers: List[Timer] = []


class ChurnDriver:
    """Arrival/departure/flow executor for one soak run."""

    def __init__(self, testbed: "Testbed", plan: WorkloadPlan):
        if testbed.config.scheme != "wgtt":
            raise ValueError("soak churn targets the WGTT scheme")
        self._testbed = testbed
        self._plan = plan
        self._active: Dict[str, _ActiveRider] = {}
        #: Departed riders whose deregistration could not be delivered
        #: (controller down at departure time); drained by a retry timer.
        self._pending_dereg: List[str] = []
        self._dereg_timer = Timer(testbed.sim, self._retry_dereg)
        self.stats = {
            "arrivals": 0,
            "departures": 0,
            "rejected": 0,
            "flows_started": 0,
            "flows_finished": 0,
            "dereg_deferred": 0,
            "dereg_retried": 0,
            # Aggregated flow outcomes (running totals, bounded memory).
            "packets_offered": 0,
            "packets_delivered": 0,
            "delay_sum_us": 0,
        }
        self._armed = False

    @property
    def max_concurrent(self) -> int:
        """The rider cap arrivals are admitted under."""
        return self._plan.config.max_concurrent

    # ------------------------------------------------------------------
    # scheduling
    # ------------------------------------------------------------------

    def arm(self) -> None:
        """Schedule every planned arrival (departures chain off them)."""
        if self._armed:
            raise RuntimeError("churn driver already armed")
        self._armed = True
        sim = self._testbed.sim
        for session in self._plan:
            sim.schedule_at(
                max(session.arrive_us, sim.now),
                lambda s=session: self._arrive(s),
            )

    # ------------------------------------------------------------------
    # arrival
    # ------------------------------------------------------------------

    def _arrive(self, session: ClientSession) -> None:
        from repro.mobility.vehicle import VehicleTrack

        testbed = self._testbed
        if len(self._active) >= self.max_concurrent:
            self.stats["rejected"] += 1
            return
        track = VehicleTrack(
            testbed.road,
            start_x=session.start_x,
            speed_mph=session.speed_mph,
            direction=session.direction,
            start_time_us=testbed.sim.now,
        )
        testbed.add_client(track, client_id=session.client_id)
        rider = _ActiveRider(session)
        self._active[session.client_id] = rider
        self.stats["arrivals"] += 1
        self._start_flows(rider)
        testbed.sim.schedule(
            session.dwell_us, lambda: self._depart(session.client_id)
        )

    def _start_flows(self, rider: _ActiveRider) -> None:
        testbed = self._testbed
        client_id = rider.session.client_id
        index = len(testbed.clients) - 1  # just appended by add_client
        for j, flow in enumerate(rider.session.flows):
            flow_id = f"{client_id}-f{j}"
            if flow.kind == "udp-dl":
                source, sink = testbed.add_downlink_udp_flow(
                    client_index=index,
                    rate_bps=flow.rate_bps,
                    flow_id=flow_id,
                )
            else:
                source, sink = testbed.add_uplink_udp_flow(
                    client_index=index,
                    rate_bps=flow.rate_bps,
                    flow_id=flow_id,
                )
            source.start(delay_us=flow.start_offset_us)
            rider.sources.append(source)
            rider.sinks.append(sink)
            self.stats["flows_started"] += 1
            stop_timer = Timer(
                testbed.sim, lambda s=source: self._finish_flow(s)
            )
            stop_timer.start(flow.start_offset_us + flow.duration_us)
            rider.stop_timers.append(stop_timer)

    def _finish_flow(self, source: "UdpSource") -> None:
        source.stop()
        self.stats["flows_finished"] += 1

    # ------------------------------------------------------------------
    # departure
    # ------------------------------------------------------------------

    def _depart(self, client_id: str) -> None:
        rider = self._active.pop(client_id, None)
        if rider is None:
            return
        self.stats["departures"] += 1
        testbed = self._testbed
        for timer in rider.stop_timers:
            timer.stop()
        for source in rider.sources:
            source.stop()
        self._harvest(rider)
        if not testbed.depart_client(client_id=client_id):
            # Controller down: park the dereg, retry until delivered.
            self._pending_dereg.append(client_id)
            self.stats["dereg_deferred"] += 1
            if not self._dereg_timer.armed:
                self._dereg_timer.start(DEREG_RETRY_INTERVAL_US)
        testbed.retire_client(client_id)

    def _harvest(self, rider: _ActiveRider) -> None:
        """Fold the rider's flow measurements into running totals and
        free the server-side sinks (bounded-memory requirement)."""
        for source, sink in zip(rider.sources, rider.sinks):
            self.stats["packets_offered"] += source.packets_sent
            self.stats["packets_delivered"] += sink.packets_received()
            self.stats["delay_sum_us"] += sum(
                d for _, _, _, d in sink.arrivals
            )
            self._testbed.server_host.detach_udp_sink(sink.flow_id)

    def _retry_dereg(self) -> None:
        pending, self._pending_dereg = self._pending_dereg, []
        for client_id in pending:
            if self._testbed.depart_client(client_id=client_id):
                self.stats["dereg_retried"] += 1
            else:
                self._pending_dereg.append(client_id)
        if self._pending_dereg:
            self._dereg_timer.start(DEREG_RETRY_INTERVAL_US)

    # ------------------------------------------------------------------
    # accounting
    # ------------------------------------------------------------------

    def pending_dereg_count(self) -> int:
        return len(self._pending_dereg)

    def delivery_ratio(self) -> Optional[float]:
        """Delivered/offered over every *finished* rider; None early."""
        offered = self.stats["packets_offered"]
        if offered == 0:
            return None
        return self.stats["packets_delivered"] / offered

    def mean_delay_us(self) -> Optional[float]:
        delivered = self.stats["packets_delivered"]
        if delivered == 0:
            return None
        return self.stats["delay_sum_us"] / delivered

    def finalize(self) -> None:
        """End-of-run: harvest riders still on the road so the final
        delivery/delay figures cover every flow that ever ran."""
        for client_id in sorted(self._active):
            rider = self._active[client_id]
            for timer in rider.stop_timers:
                timer.stop()
            for source in rider.sources:
                source.stop()
            self._harvest(rider)
        self._dereg_timer.stop()

    def collect_metrics(self) -> Dict[str, object]:
        """Metrics-registry collector (wired by the harness)."""
        out: Dict[str, object] = {
            f"churn_{name}": value for name, value in self.stats.items()
        }
        out["churn_active"] = len(self._active)
        out["churn_pending_dereg"] = len(self._pending_dereg)
        return out
