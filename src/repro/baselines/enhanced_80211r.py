"""Enhanced 802.11r: the paper's comparison scheme (§5.1).

A performance-tuned combination of 802.11r fast BSS transition and
802.11k neighbor reports, built the way the paper expects industry to
build it:

1. every AP beacons each 100 ms; the client estimates per-AP RSSI from
   beacons;
2. the client switches to the highest-RSSI AP once the current AP's
   smoothed RSSI drops below a threshold, with a one-second time
   hysteresis;
3. association/authentication state is pre-shared between APs over the
   backhaul, so a handover costs only the over-the-air reassociation
   exchange.

Unlike WGTT there is no fan-out: downlink packets are routed to exactly
one AP (by a thin WLC), whose queued backlog is stranded whenever the
client moves on — the stranded AP burns airtime retrying into the
client's wake, precisely the failure mode §2 and Figure 14 document.

The *stock* 802.11r variant of §2 (Figure 4) is the same machinery with
``min_history_us`` set to the 5-second RSSI history Cisco documents,
which is longer than a 20 mph client stays in a picocell.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Dict, List, Optional, Tuple

from repro.mac.frames import BeaconFrame, MgmtFrame
from repro.mac.medium import WirelessMedium
from repro.mac.wifi_device import WifiDevice
from repro.net.backhaul import EthernetBackhaul
from repro.net.packet import Packet
from repro.net.queues import DropTailQueue
from repro.net.tunnel import tunnel_wire_size
from repro.sim.engine import MS, SECOND, Simulator
from repro.sim.rng import RngRegistry

#: Switch trigger: current AP's smoothed RSSI below this.
#: Calibrated to reproduce the sticky behaviour the paper measured:
#: its Enhanced 802.11r client switched only ~0.3-1 times/s at
#: 15 mph (Figs 14-15) — i.e. its effective trigger sat near the
#: beacon-decode floor, where the smoothed RSSI *freezes* (no more
#: beacon samples) and the client hangs on to a dead AP until the
#: staleness timer clears it. That freeze-then-hang dynamic is the
#: §2 critique in mechanism form.
RSSI_THRESHOLD_DBM = -85.0
#: Time hysteresis between switches (paper: one second).
TIME_HYSTERESIS_US = 1 * SECOND
#: RSSI smoothing: EWMA weight of the newest beacon.
EWMA_ALPHA = 0.5
#: Forget an AP not heard from for this long.
STALE_AFTER_US = 2 * SECOND
#: After a failed FT-over-DS exchange, wait this long before trying
#: a direct over-the-air association with the target.
FALLBACK_DELAY_US = 200 * MS
#: Cooldown before re-attempting after a completely failed handover.
RETRY_COOLDOWN_US = 300 * MS
#: The WLC's backhaul address.
WLC_ID = "wlc"


@dataclass
class RoamingConfig:
    """Client-side roaming policy parameters."""

    #: Beacon history required from the *current* AP before the client
    #: will decide to leave it. Enhanced 802.11r decides immediately
    #: (0); stock implementations wait for a 5 s history (§2).
    min_history_us: int = 0


class BaselineWlc:
    """Minimal wireless LAN controller: routes downlink to one AP."""

    def __init__(
        self,
        sim: Simulator,
        backhaul: EthernetBackhaul,
    ):
        self._sim = sim
        self._backhaul = backhaul
        self._route: Dict[str, str] = {}
        self._ap_ids: List[str] = []
        self.on_uplink: Callable[[Packet], None] = lambda packet: None
        self.stats = {"downlink_routed": 0, "downlink_unrouted": 0}
        backhaul.register(WLC_ID, self._on_backhaul)

    def add_ap(self, ap_id: str) -> None:
        self._ap_ids.append(ap_id)

    def route_for(self, client_id: str) -> Optional[str]:
        """The AP the WLC sends ``client_id``'s downlink to (inspection for tests)."""
        return self._route.get(client_id)

    def record_association(self, client_id: str, ap_id: str) -> None:
        """Route ``client_id``'s downlink through ``ap_id`` from now on
        (an AP's ``assoc-update``, or instant association)."""
        self._route[client_id] = ap_id

    def accept_downlink(self, packet: Packet) -> None:
        ap_id = self._route.get(packet.dst)
        if ap_id is None:
            self.stats["downlink_unrouted"] += 1
            return
        self.stats["downlink_routed"] += 1
        self._backhaul.send(
            WLC_ID,
            ap_id,
            "data",
            packet,
            size_bytes=tunnel_wire_size(packet, downlink=True),
        )

    def _on_backhaul(self, src: str, kind: str, payload: object) -> None:
        if kind == "uplink":
            self.on_uplink(payload)
        elif kind == "assoc-update":
            self.record_association(*payload)


class Baseline80211rAp:
    """One beaconing baseline AP with a per-client downlink buffer."""

    #: Socket/interface buffering above the Wi-Fi stack (packets). Adds
    #: to the MAC service queue, giving the stranded-backlog effect.
    UPPER_BUFFER_CAPACITY = 300

    def __init__(
        self,
        sim: Simulator,
        medium: WirelessMedium,
        backhaul: EthernetBackhaul,
        rng: RngRegistry,
        ap_id: str,
    ):
        self._sim = sim
        self._backhaul = backhaul
        self.ap_id = ap_id
        self.device = WifiDevice(sim, medium, rng, ap_id, role="ap")
        self.device.on_packet = self._uplink_received
        self.device.on_mgmt = self._mgmt_received
        self.device.on_refill_needed = self._refill
        self.device.start_beaconing()
        self._buffers: Dict[str, DropTailQueue] = {}
        self._refilling = False
        self.stats = {"reassociations": 0, "uplink_forwarded": 0}
        backhaul.register(ap_id, self._on_backhaul)

    def _buffer(self, client_id: str) -> DropTailQueue:
        queue = self._buffers.get(client_id)
        if queue is None:
            queue = DropTailQueue(self.UPPER_BUFFER_CAPACITY, name=f"sock:{client_id}")
            self._buffers[client_id] = queue
        return queue

    def backlog(self, client_id: str) -> int:
        """Stranded packets: socket buffer + MAC service queue."""
        return len(self._buffer(client_id)) + self.device.queue_len(client_id)

    def _on_backhaul(self, src: str, kind: str, payload: object) -> None:
        if kind == "data":
            packet: Packet = payload
            self._buffer(packet.dst).enqueue(packet)
            self._refill(packet.dst)
        elif kind == "ft-forward":
            # A peer AP brokered an FT request: admit the client and
            # answer over the air with the (re)association response.
            self._complete_association(payload)

    def _refill(self, client_id: str) -> None:
        # Re-entrancy guard: enqueue kicks the device which asks for
        # refills again; the nested call must not double-fill.
        buffer = self._buffers.get(client_id)
        if buffer is None or self._refilling:
            return
        self._refilling = True
        try:
            while self.device.queue_room(client_id) > 0 and not buffer.empty:
                self.device.enqueue(buffer.dequeue(), client_id)
        finally:
            self._refilling = False

    def _uplink_received(self, packet: Packet, from_addr: str) -> None:
        self.stats["uplink_forwarded"] += 1
        self._backhaul.send(
            self.ap_id,
            WLC_ID,
            "uplink",
            packet,
            size_bytes=tunnel_wire_size(packet, downlink=False),
        )

    def _mgmt_received(self, frame: MgmtFrame) -> None:
        client_id = frame.ta
        if frame.subtype == "ft-request":
            # 802.11r fast transition over the DS: the client asked us
            # (its *current* AP) to broker the move; forward to the
            # target over the backhaul.
            target = frame.payload.get("target")
            if target is not None:
                self._backhaul.send_control(
                    self.ap_id, target, "ft-forward", client_id
                )
            return
        if frame.subtype not in ("assoc-req", "reassoc-req"):
            return
        self._complete_association(client_id)

    def _complete_association(self, client_id: str) -> None:
        self.stats["reassociations"] += 1
        # Pre-shared auth state (the "Enhanced" part): respond at once.
        self.device.send_mgmt("assoc-resp", client_id)
        self._backhaul.send_control(
            self.ap_id, WLC_ID, "assoc-update", (client_id, self.ap_id)
        )


class RoamingClientAgent:
    """Client-side 802.11r/k roaming logic around a WifiDevice."""

    def __init__(
        self,
        sim: Simulator,
        device: WifiDevice,
        config: Optional[RoamingConfig] = None,
    ):
        self._sim = sim
        self.device = device
        self.config = config or RoamingConfig()
        self.current_ap: Optional[str] = None
        self._smoothed_rssi: Dict[str, float] = {}
        self._first_heard_us: Dict[str, int] = {}
        self._last_heard_us: Dict[str, int] = {}
        self._last_switch_us = -(10**9)
        self._handover_in_progress = False
        self._handover_deadline_us = 0
        #: (time_us, ap_id) log of completed associations.
        self.association_log: List[Tuple[int, str]] = []
        self.failed_handovers = 0
        device.on_beacon = self._on_beacon
        device.on_mgmt = self._on_mgmt
        device.accept_data_from = self._accept_data_from

    # -- reception gates -------------------------------------------------

    def _accept_data_from(self, ta: str) -> bool:
        return ta == self.current_ap

    def uplink_peer(self) -> Optional[str]:
        return self.current_ap

    # -- measurement -------------------------------------------------------

    def _on_beacon(self, frame: BeaconFrame, rssi_dbm: float) -> None:
        ap_id = frame.ta
        now = self._sim.now
        if ap_id in self._smoothed_rssi:
            self._smoothed_rssi[ap_id] = (
                EWMA_ALPHA * rssi_dbm
                + (1 - EWMA_ALPHA) * self._smoothed_rssi[ap_id]
            )
        else:
            self._smoothed_rssi[ap_id] = rssi_dbm
            self._first_heard_us[ap_id] = now
        self._last_heard_us[ap_id] = now
        self._forget_stale(now)
        self._evaluate(now)

    def _forget_stale(self, now: int) -> None:
        stale = [
            ap
            for ap, last in self._last_heard_us.items()
            if now - last > STALE_AFTER_US
        ]
        for ap in stale:
            self._smoothed_rssi.pop(ap, None)
            self._first_heard_us.pop(ap, None)
            self._last_heard_us.pop(ap, None)

    def rssi_of(self, ap_id: str) -> Optional[float]:
        """The smoothed RSSI roaming decides on (inspection for tests)."""
        return self._smoothed_rssi.get(ap_id)

    # -- the roaming decision ----------------------------------------------

    def _evaluate(self, now: int) -> None:
        if self._handover_in_progress:
            if now <= self._handover_deadline_us:
                return
            # A brokered handover that never completed: give up on it.
            self._handover_in_progress = False
            self.failed_handovers += 1
        if not self._smoothed_rssi:
            return
        best_ap = max(self._smoothed_rssi, key=lambda a: self._smoothed_rssi[a])
        if self.current_ap is None:
            self._handover(best_ap, "assoc-req")
            return
        if best_ap == self.current_ap:
            return
        if now - self._last_switch_us < TIME_HYSTERESIS_US:
            return
        current_rssi = self._smoothed_rssi.get(self.current_ap)
        if current_rssi is not None:
            if current_rssi >= RSSI_THRESHOLD_DBM:
                return
            # Stock 802.11r refuses to decide without a long history.
            history = now - self._first_heard_us.get(self.current_ap, now)
            if history < self.config.min_history_us:
                return
        else:
            # No measurement of the current AP yet: only treat it as
            # lost after it has had ample time to beacon; otherwise
            # we'd roam spuriously right after associating.
            if now - self._last_switch_us < STALE_AFTER_US:
                return
        self._handover(best_ap, "reassoc-req")

    def _handover(self, target_ap: str, subtype: str) -> None:
        """Move to ``target_ap``.

        When associated, 802.11r fast transition runs *over the DS*:
        the FT request is sent to the **current** AP, which brokers the
        move over the backhaul. That is exactly what breaks at speed —
        by the time the roam threshold trips, the current link is often
        already dead and the FT request never gets through (paper §2,
        Figure 4). After a failed FT the client falls back to a direct
        over-the-air association attempt with the target.
        """
        self._handover_in_progress = True
        self._handover_deadline_us = self._sim.now + 2 * SECOND
        if self.current_ap is None or subtype == "assoc-req":
            self._direct_associate(target_ap)
            return

        def on_ft_result(delivered: bool) -> None:
            if delivered:
                return  # now waiting for the target's assoc-resp
            self.failed_handovers += 1
            self._sim.schedule(
                FALLBACK_DELAY_US,
                lambda: self._direct_associate(target_ap),
            )

        self.device.send_mgmt(
            "ft-request",
            self.current_ap,
            payload={"target": target_ap},
            on_result=on_ft_result,
        )

    def _direct_associate(self, target_ap: str) -> None:
        def on_result(delivered: bool) -> None:
            if delivered:
                return
            self.failed_handovers += 1
            # Give up for now; allow a fresh attempt after a cooldown.
            self._sim.schedule(RETRY_COOLDOWN_US, self._clear_handover)

        self.device.send_mgmt("assoc-req", target_ap, on_result=on_result)

    def _clear_handover(self) -> None:
        self._handover_in_progress = False

    def _on_mgmt(self, frame: MgmtFrame) -> None:
        if frame.subtype == "assoc-resp":
            self.record_association(frame.ta)

    def record_association(self, ap_id: str) -> None:
        """The client is now associated to ``ap_id`` (an over-the-air
        ``assoc-resp``, or instant association)."""
        self.current_ap = ap_id
        self._last_switch_us = self._sim.now
        self._handover_in_progress = False
        self.association_log.append((self._sim.now, ap_id))


def stock_80211r_config() -> RoamingConfig:
    """Stock 802.11r as measured in §2: 5 s of RSSI history required."""
    return RoamingConfig(min_history_us=5 * SECOND)
