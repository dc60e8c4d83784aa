"""In-process HA cluster glue: ingress routing + checkpoint shipping.

The cluster owns the pieces neither controller can own alone:

* **checkpoint shipping** — every ``checkpoint_interval_us`` the
  primary's state is serialized (canonical bytes) and shipped to the
  standby over the backhaul data path, so the wire cost is modelled;
* **ingress routing** — server-side downlink traffic enters through
  :meth:`accept_downlink`, which steers to whichever controller is
  currently active; packets arriving while *neither* is active (the
  detection gap) are counted in ``lost_downlink``, never silently
  dropped;
* **role flipping** — a primary that restarts after the standby
  promoted comes back *demoted*: no ``ctrl-hello`` resync (the cluster
  clears ``hello_on_restart``), standby role, inert.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Tuple

from repro.core.config import WgttConfig
from repro.core.controller import WgttController
from repro.ha.standby import StandbyController
from repro.net.backhaul import EthernetBackhaul
from repro.net.packet import Packet
from repro.sim.engine import Simulator, Timer


class HaCluster:
    """One primary + one warm standby, wired for failover."""

    def __init__(
        self,
        sim: Simulator,
        backhaul: EthernetBackhaul,
        primary: WgttController,
        standby: StandbyController,
        config: WgttConfig,
    ):
        self._sim = sim
        self._backhaul = backhaul
        self._config = config
        self.primary = primary
        self.standby = standby
        primary.ha_peer = standby.controller_id
        primary.on_restart = self._primary_restarted
        standby.on_promote = self._standby_promoted
        self._ship_timer = Timer(sim, self._ship_tick)
        self.checkpoints_shipped = 0
        self.checkpoint_bytes = 0
        #: Downlink packets that arrived while no controller was active.
        self.lost_downlink = 0
        #: (time_us, event) — cluster-level event trace for the audit.
        self.events: List[Tuple[int, str]] = []

    # ------------------------------------------------------------------
    # lifecycle
    # ------------------------------------------------------------------

    def start(self) -> None:
        """Begin heartbeating and checkpoint shipping (primary side)."""
        self.primary.start_ctrl_heartbeats()
        interval = self._config.checkpoint_interval_us
        if interval > 0:
            self._ship_timer.start(interval)

    def active_controller(self) -> Optional[WgttController]:
        """Whoever currently owns the control plane, or None mid-gap."""
        if self.primary.alive and self.primary.role == "primary":
            return self.primary
        if self.standby.promoted and self.standby.alive:
            return self.standby
        return None

    def collect_metrics(self) -> Dict[str, object]:
        """The pair's share of the metrics snapshot: the controller
        keys of whoever owns the control plane (the primary while
        nobody does — after a promotion the standby is doing the work,
        so its numbers are the live ones), plus the cluster's own
        shipping counters."""
        active = self.active_controller() or self.primary
        out = active.collect_metrics()
        out["ha_checkpoints_shipped"] = self.checkpoints_shipped
        out["ha_checkpoint_bytes"] = self.checkpoint_bytes
        out["ha_lost_downlink"] = self.lost_downlink
        out["ha_promotions"] = self.standby.stats["promotions"]
        return out

    def accept_downlink(self, packet: Packet) -> None:
        active = self.active_controller()
        if active is None:
            self.lost_downlink += 1
            tracer = self._sim.obs.trace
            if tracer.active:
                tracer.emit(
                    "ha",
                    "downlink-lost",
                    track="ha",
                    detail=True,
                    client=packet.dst,
                )
            return
        active.accept_downlink(packet)

    # ------------------------------------------------------------------
    # internals
    # ------------------------------------------------------------------

    def _ship_tick(self) -> None:
        if self.standby.promoted:
            # Failed over: nothing to ship (reverse shipping from the
            # promoted standby to a repaired primary is future work).
            return
        if self.primary.alive:
            data = self.primary.snapshot().to_bytes()
            self.checkpoints_shipped += 1
            self.checkpoint_bytes += len(data)
            self._backhaul.send(
                self.primary.controller_id,
                self.standby.controller_id,
                "ha-checkpoint",
                data,
                size_bytes=len(data),
            )
            self.events.append((self._sim.now, "checkpoint-shipped"))
            tracer = self._sim.obs.trace
            if tracer.active:
                tracer.emit(
                    "ha",
                    "checkpoint-ship",
                    track="ha",
                    detail=True,
                    bytes=len(data),
                )
        self._ship_timer.start(self._config.checkpoint_interval_us)

    def _standby_promoted(self) -> None:
        """The instant the standby takes over, the (dead) primary is
        pre-demoted: if it ever restarts it must not broadcast
        ``ctrl-hello`` and steal the AP array back."""
        self.primary.hello_on_restart = False
        self.events.append((self._sim.now, "standby-promoted"))

    def _primary_restarted(self) -> None:
        if self.standby.promoted:
            # The standby owns the control plane now: the ex-primary
            # comes back demoted and inert (hello_on_restart was
            # cleared at promotion time, and the standby role keeps
            # ingress routing away from it).
            self.primary.role = "standby"
            self.events.append((self._sim.now, "primary-demoted"))
        else:
            self.events.append((self._sim.now, "primary-restarted"))
