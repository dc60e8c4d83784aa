"""The WGTT access point (paper §3, §4.2).

A thin wrapper around a :class:`~repro.mac.WifiDevice` that adds every
AP-side WGTT behaviour:

* per-client cyclic queues fed by the controller's downlink fan-out,
* the stop / start(c, k) sides of the switching protocol, with the
  kernel-ioctl index query and driver-queue filtering the paper
  implements in ``ieee80211_ops_tx()``,
* CSI measurement on every overheard client frame, forwarded to the
  controller,
* uplink packet forwarding (every decoded client datagram is tunneled
  to the controller, which de-duplicates),
* block-ACK forwarding: overheard BAs answering another AP's aggregate
  are shipped to the serving AP; incoming forwarded BAs are applied
  after the seen-before check,
* association-state replication (hostapd sta_info sync).
"""

from __future__ import annotations

from collections import deque
from typing import Any, Callable, Deque, Dict, List, Optional, Set, Tuple

import numpy as np

from repro.channel.csi import CsiReport
from repro.core.assoc_sync import (
    STA_SYNC_WIRE_BYTES,
    AssociationDirectory,
    DepartedMemory,
    StaInfo,
)
from repro.core.ba_forwarding import (
    BA_FORWARD_WIRE_BYTES,
    BaSeenCache,
    ForwardedBa,
)
from repro.core.config import BSSID, WgttConfig
from repro.core.controller import CONTROLLER_HEARTBEAT_INTERVAL_US
from repro.core.cyclic_queue import CyclicQueue
from repro.core.liveness import LivenessTracker
from repro.core.switching import AckMsg, FailoverMsg, StartMsg, StopMsg
from repro.mac.frames import BlockAckFrame
from repro.mac.medium import WirelessMedium
from repro.mac.wifi_device import WifiDevice
from repro.net.backhaul import EthernetBackhaul
from repro.net.packet import Packet
from repro.net.tunnel import tunnel_wire_size
from repro.obs.metrics import metric_key
from repro.sim.engine import MS, Simulator, Timer
from repro.sim.rng import RngRegistry

#: Wire size of one heartbeat (ap id + sequence + uptime).
HEARTBEAT_WIRE_BYTES = 32

#: Kernel ioctl round trip + Click user-level handling when a stop
#: arrives (§3.1.2 "Implementing the switch"). Calibrated so the
#: full three-step protocol averages ~17 ms as Table 1 measures.
STOP_PROCESSING_MEAN_US = 13 * MS
STOP_PROCESSING_JITTER_US = 6 * MS

#: Processing at the incoming AP between start(c, k) and its ack.
START_PROCESSING_US = 3 * MS

#: How long a stopped AP may keep draining its NIC hardware queue
#: over the air (§3.1.2: "These packets take 6 ms to deliver").
#: After this the leftover MPDUs are abandoned — a real NIC cannot
#: replay seconds-old frames, and neither may the model (stale
#: frames would alias in the 12-bit sequence space).
NIC_DRAIN_US = 6 * MS

#: BA-response jitter APs apply (µs); §5.3.2 observes the interval
#: between the last MPDU and the BA varying by microseconds, which
#: is what keeps everyone-answers block ACKs from colliding.
BA_RESPONSE_JITTER_US = 16

#: Bounded AP-side buffer for uplink/CSI traffic while the
#: controller is unreachable (buffer-and-hold).  Oldest entries are
#: dropped (and counted) when full.
CTRL_HOLD_BUFFER_SLOTS = 512

#: The one entry of an AP's controller watch, whichever controller beats.
CTRL_WATCH_KEY = "controller"


class WgttAccessPoint:
    """One roadside WGTT AP."""

    #: ``stats`` counters that only move under an adversarial schedule
    #: (or an extreme reordering no stock run produces):
    #: :meth:`collect_metrics` hides them while zero so a healthy run's
    #: snapshot — and every soak fingerprint folded from it — keeps its
    #: key set.  Adding a name here is all it takes to add a lazily
    #: exported counter.
    LAZY_STATS: Tuple[str, ...] = (
        # Adversary-facing rejection counters.
        "stale_stops",
        "stale_starts",
        "stale_failovers",
        "stale_takeovers",
        "stale_serving_updates",
        "stale_sta_syncs",
        "serving_relinquished",
        # Churn-facing guard: a stop/start/failover that was in flight
        # when the (prioritized) client-departed message tore the
        # client down must not resurrect serving duty.
        "serving_after_departure",
    )

    def __init__(
        self,
        sim: Simulator,
        medium: WirelessMedium,
        backhaul: EthernetBackhaul,
        rng: RngRegistry,
        ap_id: str,
        config: Optional[WgttConfig] = None,
        controller_id: str = "controller",
    ):
        self._sim = sim
        self._backhaul = backhaul
        self._config = config or WgttConfig()
        self.ap_id = ap_id
        self._controller_id = controller_id
        self._rng = rng.stream(f"wgtt-ap/{ap_id}")

        self.device = WifiDevice(
            sim,
            medium,
            rng,
            ap_id,
            role="ap",
            addresses={BSSID},
            monitor=True,
            response_jitter_us=BA_RESPONSE_JITTER_US,
        )
        self.device.ta_address = BSSID
        self.device.on_refill_needed = self._refill
        self.device.on_overheard_block_ack = self._overheard_ba
        self.device.on_ba_processed = self._local_ba_processed
        self.device.on_csi = self._csi_measured
        self.device.on_packet = self._uplink_received
        self.device.on_mgmt = self._mgmt_received

        self.directory = AssociationDirectory()
        #: Clients this AP admitted over the air, until the controller's
        #: first serving-update names their AP (several APs may decode
        #: one assoc-req; only the named one starts serving).
        self._awaiting_serving: Set[str] = set()
        self._cyclic: Dict[str, CyclicQueue] = {}
        self._serving: Set[str] = set()
        #: Controller-published map of which AP serves each client.
        self._serving_view: Dict[str, str] = {}
        #: client -> highest serving generation applied; updates whose
        #: ``(epoch_us, seq)`` tag is not strictly newer are dropped,
        #: so duplicated or replayed serving-updates cannot roll the
        #: view back to a stale AP.
        self._serving_gen_view: Dict[str, Tuple[int, int]] = {}
        #: client -> highest switch_id handled (stop, start, or
        #: failover).  Replays from an *older* handshake are dropped;
        #: retransmissions of the current handshake (equal id) re-run
        #: the handler, which is the protocol's own recovery path.
        self._switch_handled: Dict[str, int] = {}
        #: Epoch of the newest controller authority acknowledged (the
        #: ctrl-takeover payload).  A replayed older announcement must
        #: not re-home this AP to a dead controller.
        self._ctrl_epoch = -1
        self._ba_seen = BaSeenCache()
        self._refilling = False

        #: False while crashed (fault injection): no radio, no backhaul,
        #: volatile state gone.
        self.alive = True
        #: Fault-injection switch, a count of open blackout windows:
        #: while non-zero, measured CSI is silently discarded (models a
        #: wedged CSI extraction path on otherwise-healthy hardware —
        #: the controller must survive the staleness).
        self.csi_suppressed = 0
        self._heartbeat_seq = 0
        #: Controller-liveness watch (HA mode), armed lazily by the
        #: first "ctrl-heartbeat": a controller that never heartbeats
        #: (non-HA) costs nothing and is never declared down.
        self._ctrl_watch = LivenessTracker(
            self._sim, CONTROLLER_HEARTBEAT_INTERVAL_US
        )
        self._ctrl_watch.on_down = self._enter_hold
        self._ctrl_watch.on_up = self._exit_hold
        #: True while the watch holds the controller DEAD: uplink/CSI
        #: forwards are buffered (bounded, drop-oldest) instead of
        #: poured into a dead socket, and flushed on re-home.
        self._holding = False
        self._hold_buffer: Deque[Tuple[str, object, int]] = deque()
        #: Recently departed clients.  "client-departed" rides the
        #: prioritized control path and can overtake "data" messages
        #: already queued behind the per-port data FIFO; a late fan-out
        #: arriving after teardown would silently recreate the client's
        #: cyclic queue and leak it forever under churn.
        self._departed = DepartedMemory()

        self.stats = {
            "stops_handled": 0,
            "starts_handled": 0,
            "failovers_handled": 0,
            "packets_dropped_at_stop": 0,
            "cyclic_dropped_on_advance": 0,
            "ba_forwarded": 0,
            "ba_forward_applied": 0,
            "ba_forward_duplicate": 0,
            "uplink_forwarded": 0,
            "csi_reports": 0,
            "csi_suppressed": 0,
            "heartbeats_sent": 0,
            "crashes": 0,
            "restarts": 0,
            "ctrl_heartbeats_seen": 0,
            "ctrl_down_detected": 0,
            "hold_buffered": 0,
            "hold_dropped": 0,
            "hold_flushed": 0,
            "rehomed": 0,
            "serving_claims_sent": 0,
            "clients_departed": 0,
            "data_after_departure": 0,
            **dict.fromkeys(self.LAZY_STATS, 0),
        }
        backhaul.register(ap_id, self._on_backhaul)
        self._heartbeat_timer = Timer(self._sim, self._heartbeat_tick)
        if self._config.heartbeat_interval_us > 0:
            self._heartbeat_timer.start(self._config.heartbeat_interval_us)

    # ------------------------------------------------------------------
    # helpers
    # ------------------------------------------------------------------

    def cyclic_queue(self, client_id: str) -> CyclicQueue:
        queue = self._cyclic.get(client_id)
        if queue is None:
            queue = CyclicQueue(self._config.cyclic_queue_size)
            self._cyclic[client_id] = queue
        return queue

    def serving_clients(self) -> List[str]:
        """Clients this AP currently transmits to, sorted."""
        return sorted(self._serving)

    # ------------------------------------------------------------------
    # observability
    # ------------------------------------------------------------------

    def cyclic_queue_count(self) -> int:
        """Per-client cyclic queues currently held (bounded gauge)."""
        return len(self._cyclic)

    def hold_buffer_depth(self) -> int:
        """Forwards parked while the controller is silent."""
        return len(self._hold_buffer)

    def overflow_drops(self) -> int:
        """Cyclic-queue slots destroyed while undelivered."""
        return sum(queue.overflow_drops for queue in self._cyclic.values())

    def collect_metrics(self) -> Dict[str, object]:
        """Everything this AP publishes to the metrics snapshot."""
        ap_id = self.ap_id
        lazy = self.LAZY_STATS
        out: Dict[str, object] = {
            metric_key("ap_stat", ap=ap_id, name=name): value
            for name, value in self.stats.items()
            if value or name not in lazy
        }
        queues = self._cyclic.values()
        out[metric_key("ap_overflow_drops", ap=ap_id)] = self.overflow_drops()
        out[metric_key("ap_cyclic_queues", ap=ap_id)] = (
            self.cyclic_queue_count()
        )
        out[metric_key("ap_cyclic_high_watermark", ap=ap_id)] = max(
            (queue.high_watermark for queue in queues), default=0
        )
        out[metric_key("ap_cyclic_overwrites", ap=ap_id)] = sum(
            queue.overwrites for queue in queues
        )
        out[metric_key("ap_hold_buffer", ap=ap_id)] = self.hold_buffer_depth()
        device = self.device.stats
        out[metric_key("ap_mpdus_sent", ap=ap_id)] = device["mpdus_sent"]
        out[metric_key("ap_ba_timeouts", ap=ap_id)] = device["ba_timeouts"]
        return out

    def start_serving(self, client_id: str, index: Optional[int] = None) -> None:
        """Take transmission duty, resuming at cyclic ``index`` (the
        reader head when None: initial association).

        The 12-bit WGTT index doubles as the MAC sequence number, so
        continuing the client's shared sequence space from it keeps the
        client's block-ACK/reorder state valid across a switch.
        """
        if index is None:
            index = self.cyclic_queue(client_id).head
        self._serving.add(client_id)
        self.device.reset_tx_state(client_id, index)
        self.device.set_session_mode(client_id, "active")
        self._refill(client_id)

    def _release_radio(self, client_id: str) -> int:
        """Silence the radio toward a client this AP no longer serves:
        no BA wait, nothing unacknowledged kept (a 12-bit sequence
        space cannot carry seconds-old frames).  Returns the MPDUs
        abandoned."""
        session = self.device.session(client_id)
        session.ba_timer.stop()
        session.awaiting = None
        abandoned = session.scoreboard.abandon_all()
        self.device.set_session_mode(client_id, "off")
        return abandoned

    # ------------------------------------------------------------------
    # liveness: heartbeats, crash, restart
    # ------------------------------------------------------------------

    def _send_heartbeat(self) -> None:
        self._heartbeat_seq += 1
        self._backhaul.send_control(
            self.ap_id,
            self._controller_id,
            "heartbeat",
            self._heartbeat_seq,
            size_bytes=HEARTBEAT_WIRE_BYTES,
        )
        self.stats["heartbeats_sent"] += 1

    def _heartbeat_tick(self) -> None:
        if self.alive:
            self._send_heartbeat()
        self._heartbeat_timer.start(self._config.heartbeat_interval_us)

    def crash(self) -> None:
        """Fault injection: the AP process/host dies.

        The radio goes dark mid-whatever (no TX, no RX, no beacons),
        the backhaul endpoint falls silent, and all volatile state —
        cyclic queues, serving duty, replicated associations, BA seen
        cache — is lost, exactly as a reboot would lose it.
        """
        if not self.alive:
            return
        self.alive = False
        self.stats["crashes"] += 1
        tracer = self._sim.obs.trace
        tracer.emit("ap", "ap-crash", track=f"ap/{self.ap_id}", ap=self.ap_id)
        self._heartbeat_timer.stop()
        self._ctrl_watch.crash()
        self._holding = False
        self._hold_buffer.clear()
        self._departed.clear()
        self._switch_handled.clear()
        self.device.power_off()
        for queue in self._cyclic.values():
            queue.clear()
        self._cyclic.clear()
        self._serving.clear()
        self._serving_view.clear()
        self._serving_gen_view.clear()
        self._awaiting_serving.clear()
        self.directory = AssociationDirectory()
        self._ba_seen = BaSeenCache()
        self._backhaul.set_node_down(self.ap_id, True)

    def restart(self) -> None:
        """Fault injection: the AP comes back up cold.

        It re-announces itself to the controller ("ap-hello"), which
        fails over the clients it still had this AP serving and replays
        the association directory and serving map (§4.3 sta sync),
        resumes beaconing, and starts heartbeating again.  It serves
        nobody until the controller switches a client to it.
        """
        if self.alive:
            return
        self.alive = True
        self.stats["restarts"] += 1
        tracer = self._sim.obs.trace
        tracer.emit("ap", "ap-restart", track=f"ap/{self.ap_id}", ap=self.ap_id)
        self._backhaul.set_node_down(self.ap_id, False)
        self.device.power_on()
        self.device.start_beaconing()
        self._backhaul.send_control(
            self.ap_id, self._controller_id, "ap-hello", self.ap_id
        )
        if self._config.heartbeat_interval_us > 0:
            self._heartbeat_timer.start(self._config.heartbeat_interval_us)

    # ------------------------------------------------------------------
    # controller liveness: watch, hold, re-home (HA mode)
    # ------------------------------------------------------------------

    def _ctrl_beat(self, src: str, payload: object) -> None:
        """Refresh (and lazily arm) the watch.  While holding, only the
        current controller's beat counts: it came back before a takeover."""
        self.stats["ctrl_heartbeats_seen"] += 1
        if not self._holding or src == self._controller_id:
            self._ctrl_watch.beat(CTRL_WATCH_KEY)

    def _enter_hold(self, _key: str) -> None:
        """Controller silent too long: buffer-and-hold.  Uplink and CSI
        forwards queue locally (bounded) instead of pouring into a dead
        socket; a takeover or a returning heartbeat releases them."""
        self._holding = True
        self.stats["ctrl_down_detected"] += 1
        tracer = self._sim.obs.trace
        tracer.emit(
            "ap", "hold-enter", track=f"ap/{self.ap_id}", ap=self.ap_id
        )

    def _exit_hold(self, _key: str) -> None:
        self._holding = False
        flushed = 0
        while self._hold_buffer:
            kind, payload, size_bytes = self._hold_buffer.popleft()
            self._backhaul.send(
                self.ap_id,
                self._controller_id,
                kind,
                payload,
                size_bytes=size_bytes,
            )
            self.stats["hold_flushed"] += 1
            flushed += 1
        tracer = self._sim.obs.trace
        tracer.emit(
            "ap",
            "hold-exit",
            track=f"ap/{self.ap_id}",
            ap=self.ap_id,
            flushed=flushed,
        )

    def _ctrl_epoch_ok(self, epoch: int, counter: str) -> bool:
        """Admit a controller authority announcement once per epoch.

        ``epoch`` is the announcing incarnation's start time, so a
        strictly larger value is genuinely newer authority.  An equal
        value is a duplicate of the announcement already applied and a
        smaller one is a replay from a dead incarnation — both would
        re-trigger the full re-home/resync storm (and a replay would
        point this AP at a dead controller), so both are dropped.
        """
        if epoch <= self._ctrl_epoch:
            self.stats[counter] += 1
            tracer = self._sim.obs.trace
            if tracer.active:
                tracer.emit(
                    "ap",
                    "stale-ctrl-epoch",
                    track=f"ap/{self.ap_id}",
                    detail=True,
                    ap=self.ap_id,
                    epoch=epoch,
                    current=self._ctrl_epoch,
                )
            return False
        self._ctrl_epoch = epoch
        # New controller incarnation: its switch_id space restarts, so
        # the per-client replay guard must restart with it.
        self._switch_handled.clear()
        return True

    def _rehome(self, src: str, epoch: int) -> None:
        """ctrl-takeover, from a restarted controller or a promoted
        standby alike: re-home, end any hold, beat at once, then hand the
        new incarnation what it rebuilds from — a claim per served client
        on the control path (pending before any replayed registration
        could put the client on its first AP), the cyclic write edges
        (no cursor behind an undelivered slot) and the directory (§4.3).
        A takeover never starts the watch: a controller without a
        standby never heartbeats.
        """
        if src != self._controller_id:
            self._controller_id = src
            self.stats["rehomed"] += 1
            tracer = self._sim.obs.trace
            tracer.emit(
                "ap",
                "rehome",
                track=f"ap/{self.ap_id}",
                ap=self.ap_id,
                controller=src,
            )
        if self._holding:
            self._ctrl_watch.beat(CTRL_WATCH_KEY)
        else:
            self._ctrl_watch.reset_clock(self._sim.now)
        self._send_heartbeat()
        for client_id in sorted(self._serving):
            self._backhaul.send_control(
                self.ap_id, src, "serving-claim", client_id, size_bytes=64
            )
            self.stats["serving_claims_sent"] += 1
        edges = {
            client_id: queue.write_edge
            for client_id, queue in sorted(self._cyclic.items())
        }
        if edges:
            self._backhaul.send(
                self.ap_id,
                src,
                "edge-report",
                edges,
                size_bytes=16 + 8 * len(edges),
            )
        for client_id in sorted(self.directory.clients()):
            self._backhaul.send(
                self.ap_id,
                src,
                "sta-sync",
                self.directory.get(client_id),
                size_bytes=STA_SYNC_WIRE_BYTES,
            )

    def _client_departed(self, src: str, client_id: str) -> None:
        """client-departed: free every per-client resource on this AP."""
        self.stats["clients_departed"] += 1
        self._departed.depart(client_id, self._sim.now)
        self._serving.discard(client_id)
        self._serving_view.pop(client_id, None)
        self._serving_gen_view.pop(client_id, None)
        self._awaiting_serving.discard(client_id)
        self._switch_handled.pop(client_id, None)
        self._cyclic.pop(client_id, None)
        if self.directory.is_associated(client_id):
            self.directory.remove(client_id)
        self.device.set_session_mode(client_id, "off")

    def _forward_to_controller(
        self, kind: str, payload: object, size_bytes: int
    ) -> None:
        """Uplink/CSI egress point, hold-aware.

        While the controller is silent the forward is buffered (bounded,
        drop-oldest — the freshest CSI and the newest uplink datagrams
        are worth the most after recovery)."""
        if self._holding:
            if len(self._hold_buffer) >= CTRL_HOLD_BUFFER_SLOTS:
                self._hold_buffer.popleft()
                self.stats["hold_dropped"] += 1
            self._hold_buffer.append((kind, payload, size_bytes))
            self.stats["hold_buffered"] += 1
            return
        self._backhaul.send(
            self.ap_id,
            self._controller_id,
            kind,
            payload,
            size_bytes=size_bytes,
        )

    # ------------------------------------------------------------------
    # backhaul dispatch
    # ------------------------------------------------------------------

    def _on_backhaul(self, src: str, kind: str, payload: Any) -> None:
        """The one dispatch: look the kind up in :attr:`KINDS`, run its
        row's guards, call its handler.  A kind without a row is
        ignored."""
        if not self.alive:
            return  # backhaul already drops these; defense in depth
        try:
            handler, departed, stale_switch, stale_epoch = self.KINDS[kind]
        except KeyError:
            return
        if departed is not None:
            # A fan-out is a bare (client, index, packet) tuple; the
            # handshake kinds carry a message dataclass.
            client_id = payload[0] if type(payload) is tuple else payload.client
            if client_id in self._departed:
                # The message lost the race with the (prioritized)
                # client-departed teardown.  Acting on it would recreate
                # what the teardown freed: a cyclic queue nobody drains,
                # or serving duty for a rider the controller no longer
                # tracks — nothing would ever revoke it.
                self.stats[departed] += 1
                return
        if stale_switch is not None and not self._switch_id_ok(
            payload.client, payload.switch_id, stale_switch
        ):
            return
        if stale_epoch is not None and not self._ctrl_epoch_ok(
            payload, stale_epoch
        ):
            return
        handler(self, src, payload)

    def _handle_sta_sync(self, src: str, info: StaInfo) -> None:
        if self._departed.is_replay(info):
            # Lifting the departed guard for a replay would let late
            # fan-outs recreate the torn-down cyclic queue and leak it.
            self.stats["stale_sta_syncs"] += 1
            return
        self.directory.admit(info)

    def _handle_serving_update(self, src: str, payload: tuple) -> None:
        client_id, ap_id, gen = payload
        last = self._serving_gen_view.get(client_id)
        if last is not None and gen <= last:
            # Duplicate or replayed update: the view already holds a
            # same-or-newer generation.  Applying it could point BA
            # forwarding at an AP that stopped serving long ago.
            self.stats["stale_serving_updates"] += 1
            return
        self._serving_gen_view[client_id] = gen
        self._serving_view[client_id] = ap_id
        if client_id in self._awaiting_serving:
            self._awaiting_serving.discard(client_id)
            if ap_id == self.ap_id:
                self.start_serving(client_id)
        if ap_id != self.ap_id and client_id in self._serving:
            # The controller has authoritatively placed this client
            # elsewhere while we still hold serving duty.  That only
            # happens when we were unreachable during a failover (a
            # partition hid the handover from us) — keep transmitting
            # and two APs serve one client.  Relinquish immediately:
            # the generation tag already proved this update is newer
            # than anything we acted on.
            self._serving.discard(client_id)
            self._release_radio(client_id)
            self.stats["serving_relinquished"] += 1
            tracer = self._sim.obs.trace
            tracer.emit(
                "ap",
                "serving-relinquish",
                track=f"ap/{self.ap_id}",
                ap=self.ap_id,
                client=client_id,
                new_ap=ap_id,
            )

    # ------------------------------------------------------------------
    # downlink: fan-out intake and radio refill
    # ------------------------------------------------------------------

    def _downlink_data(self, src: str, payload: tuple) -> None:
        client_id, index, packet = payload
        self.cyclic_queue(client_id).insert(index, packet)
        tracer = self._sim.obs.trace
        if tracer.active:
            tracer.emit(
                "ap",
                "cyclic-insert",
                track=f"ap/{self.ap_id}",
                detail=True,
                ap=self.ap_id,
                client=client_id,
                index=index,
                serving=client_id in self._serving,
            )
        if client_id in self._serving:
            self._refill(client_id)

    def _refill(self, client_id: str) -> None:
        """Top up the radio's service queue from the cyclic queue.

        Re-entrancy guard: enqueueing kicks the device, which asks for
        refills again — the inner call must be a no-op or the outer
        loop's stale room estimate would push packets into a full
        queue and lose them.
        """
        if client_id not in self._serving or self._refilling:
            return
        queue = self._cyclic.get(client_id)
        if queue is None:
            return
        self._refilling = True
        try:
            while self.device.queue_room(client_id) > 0:
                entry = queue.pop_head()
                if entry is None:
                    break
                index, packet = entry
                packet.meta["wgtt_index"] = index
                self.device.enqueue(packet, client_id)
        finally:
            self._refilling = False

    # ------------------------------------------------------------------
    # switching protocol, AP side
    # ------------------------------------------------------------------

    def _switch_id_ok(
        self, client_id: str, switch_id: int, counter: str
    ) -> bool:
        """Per-client handshake replay guard.

        The controller issues strictly increasing switch_ids per
        client, so a message carrying a *smaller* id than the newest
        one handled here is a replay from a finished handshake.
        Running it would be destructive — a stale stop revokes serving
        duty the controller believes this AP holds, and a stale start
        rewinds the cyclic reader over undelivered backlog.  An *equal*
        id is the live handshake's own retransmission and re-runs the
        handler: that re-execution is the protocol's loss-recovery
        path and must stay untouched.
        """
        handled = self._switch_handled.get(client_id, -1)
        if switch_id < handled:
            self.stats[counter] += 1
            tracer = self._sim.obs.trace
            if tracer.active:
                tracer.emit(
                    "ap",
                    "stale-switch-msg",
                    track=f"switch/{client_id}",
                    detail=True,
                    ap=self.ap_id,
                    client=client_id,
                    switch_id=switch_id,
                    handled=handled,
                    counter=counter,
                )
            return False
        self._switch_handled[client_id] = switch_id
        return True

    def _handle_stop(self, src: str, message: StopMsg) -> None:
        """stop(c): cease serving; find k; send start(c, k) to the target.

        The in-flight aggregate (the NIC hardware queue) is allowed to
        finish over the air — the paper lets AP1 drain ~6 ms of NIC
        backlog on its inferior link rather than discard it. Everything
        still in the software queues is filtered out; its first index
        becomes k.
        """
        client_id = message.client
        self.stats["stops_handled"] += 1
        tracer = self._sim.obs.trace
        span = tracer.begin(
            "ap",
            "stop-processing",
            track=f"switch/{client_id}",
            ap=self.ap_id,
            client=client_id,
            switch_id=message.switch_id,
        )
        self._serving.discard(client_id)
        # Drain mode: whatever is already on the scoreboard (the NIC
        # hardware queue, in the paper's terms) may still go out over
        # the inferior link — ~6 ms of airtime — but nothing new is
        # pulled. The software-queue backlog is filtered out; its first
        # index is k.
        self.device.set_session_mode(client_id, "drain")
        backlog = self.device.session(client_id).queue.drain()
        self.stats["packets_dropped_at_stop"] += len(backlog)

        def end_drain():
            if client_id in self._serving:
                return  # duty came back before the drain window closed
            self.stats["packets_dropped_at_stop"] += self._release_radio(
                client_id
            )

        self._sim.schedule(NIC_DRAIN_US, end_drain)
        if backlog:
            k = backlog[0].meta.get("wgtt_index", self.cyclic_queue(client_id).head)
        else:
            k = self.cyclic_queue(client_id).head
        delay = self._stop_processing_delay_us()
        start = StartMsg(
            client=client_id,
            index=k,
            switch_id=message.switch_id,
            from_ap=self.ap_id,
        )
        def send_start():
            self._backhaul.send_control(
                self.ap_id, message.target_ap, "start", start
            )
            tracer.end(span, k=k, target_ap=message.target_ap)

        self._sim.schedule(delay, send_start)

    def _stop_processing_delay_us(self) -> int:
        """ioctl round trip + user-level Click handling (calibrated)."""
        sigma = STOP_PROCESSING_JITTER_US / 2.0
        return max(500, int(self._rng.normal(STOP_PROCESSING_MEAN_US, sigma)))

    def _handle_start(self, src: str, message: StartMsg) -> None:
        client_id = message.client
        self.stats["starts_handled"] += 1
        tracer = self._sim.obs.trace
        span = tracer.begin(
            "ap",
            "start-processing",
            track=f"switch/{client_id}",
            ap=self.ap_id,
            client=client_id,
            switch_id=message.switch_id,
            k=message.index,
        )
        dropped = self.cyclic_queue(client_id).advance_to(message.index)
        self.stats["cyclic_dropped_on_advance"] += dropped
        self._adopt_after_processing(message, span, lambda: message.index)

    def _handle_failover(self, src: str, message: FailoverMsg) -> None:
        """failover(c): the serving AP died — adopt the client *now*.

        No start(c, k) can come from the dead AP, so k is recovered
        locally: the controller's fan-out has been pre-placing this
        client's downlink stream in our cyclic queue all along (paper
        §3.1.2), so resuming from the first index of our own backlog
        restarts the flow with zero backhaul re-sends.  An empty
        backlog resumes at the write edge — the next fanned-out packet.
        """
        client_id = message.client
        self.stats["failovers_handled"] += 1
        queue = self.cyclic_queue(client_id)
        tracer = self._sim.obs.trace
        span = tracer.begin(
            "ap",
            "failover-processing",
            track=f"switch/{client_id}",
            ap=self.ap_id,
            client=client_id,
            switch_id=message.switch_id,
            dead_ap=message.dead_ap,
        )

        def own_backlog_head() -> int:
            backlog = queue.backlog_packets()
            k = backlog[0][0] if backlog else queue.write_edge
            self.stats["cyclic_dropped_on_advance"] += queue.advance_to(k)
            return k

        self._adopt_after_processing(message, span, own_backlog_head)

    def _adopt_after_processing(
        self, message, span: Optional[int], resume_index: Callable[[], int]
    ) -> None:
        """The incoming AP's half of start and failover alike: one
        start-processing delay from now, ack the controller and take
        serving duty at ``resume_index()`` (asked for then, not now)."""
        client_id = message.client
        tracer = self._sim.obs.trace

        def activate():
            if client_id in self._departed:
                # Departure landed inside the processing window: see
                # the dispatch guard — never adopt a departed client.
                self.stats["serving_after_departure"] += 1
                tracer.end(span)
                return
            k = resume_index()
            ack = AckMsg(
                client=client_id, ap=self.ap_id, switch_id=message.switch_id
            )
            self._backhaul.send_control(self.ap_id, self._controller_id, "ack", ack)
            tracer.end(span, k=k)
            self.start_serving(client_id, k)

        self._sim.schedule(START_PROCESSING_US, activate)

    # ------------------------------------------------------------------
    # uplink: CSI, data forwarding, BA forwarding
    # ------------------------------------------------------------------

    def _csi_measured(
        self, client_id: str, snr_db: np.ndarray, rssi_dbm: float
    ) -> None:
        if self.csi_suppressed:
            self.stats["csi_suppressed"] += 1
            return
        report = CsiReport(
            time_us=self._sim.now,
            ap_id=self.ap_id,
            client_id=client_id,
            subcarrier_snr_db=snr_db,
            rssi_dbm=rssi_dbm,
        )
        # Resolve the effective SNR now, while the batched medium's
        # PHY prewarm for this completion is still memo-resident; the
        # controller reads it after a backhaul delay, long after the
        # bounded memo may have recycled this snapshot's entry.
        report.esnr_db
        self.stats["csi_reports"] += 1
        self._forward_to_controller(
            "csi", report, report.wire_size_bytes()
        )

    def _uplink_received(self, packet: Packet, from_addr: str) -> None:
        self.stats["uplink_forwarded"] += 1
        self._forward_to_controller(
            "uplink", packet, tunnel_wire_size(packet, downlink=False)
        )

    def _overheard_ba(self, frame: BlockAckFrame) -> None:
        if not self._config.ba_forwarding_enabled:
            return
        client_id = frame.ta
        serving_ap = self._serving_view.get(client_id)
        if serving_ap is None or serving_ap == self.ap_id:
            return
        forwarded = ForwardedBa(
            client=client_id,
            start_seq=frame.start_seq,
            acked=frozenset(frame.acked),
            heard_by=self.ap_id,
            heard_at_us=self._sim.now,
        )
        self.stats["ba_forwarded"] += 1
        tracer = self._sim.obs.trace
        if tracer.active:
            tracer.emit(
                "ap",
                "ba-forward",
                track=f"ap/{self.ap_id}",
                detail=True,
                ap=self.ap_id,
                client=client_id,
                to_ap=serving_ap,
                start_seq=frame.start_seq,
            )
        self._backhaul.send(
            self.ap_id,
            serving_ap,
            "ba-fwd",
            forwarded,
            size_bytes=BA_FORWARD_WIRE_BYTES,
        )

    def _local_ba_processed(self, frame: BlockAckFrame) -> None:
        self._ba_seen.record_local(
            frame.ta, frame.start_seq, set(frame.acked), self._sim.now
        )

    def _handle_forwarded_ba(self, src: str, forwarded: ForwardedBa) -> None:
        if not self._ba_seen.check_and_record(forwarded, self._sim.now):
            self.stats["ba_forward_duplicate"] += 1
            return
        result = self.device.apply_block_ack_info(
            forwarded.client, set(forwarded.acked)
        )
        if result["delivered"]:
            self.stats["ba_forward_applied"] += 1

    # ------------------------------------------------------------------
    # association
    # ------------------------------------------------------------------

    def _mgmt_received(self, frame) -> None:
        if frame.subtype != "assoc-req":
            return
        client_id = frame.ta
        if self.directory.is_associated(client_id):
            return
        info = StaInfo(
            client=client_id,
            associated_at_us=self._sim.now,
            first_ap=self.ap_id,
        )
        self.directory.admit(info)
        self._awaiting_serving.add(client_id)
        # Replicate sta_info to every AP and the controller (§4.3).
        self._backhaul.broadcast(
            self.ap_id, "sta-sync", info, size_bytes=STA_SYNC_WIRE_BYTES
        )
        self.device.send_mgmt("assoc-resp", client_id)

    # ------------------------------------------------------------------
    # the dispatch table
    # ------------------------------------------------------------------

    #: kind -> (handler, departed-client counter, stale-switch counter,
    #: stale-epoch counter).  :meth:`_on_backhaul` runs the guards a row
    #: names, in that order, and bumps the named ``stats`` counter
    #: instead of calling ``handler(self, src, payload)`` when one
    #: trips: the payload's client is in the departed memory, its
    #: ``switch_id`` is older than the newest handled for that client,
    #: or the payload (a controller epoch) is not newer than the one
    #: acknowledged.  A guard only one kind needs lives in its handler.
    KINDS: Dict[
        str,
        Tuple[Callable[..., None], Optional[str], Optional[str], Optional[str]],
    ] = {
        "data": (_downlink_data, "data_after_departure", None, None),
        "stop": (_handle_stop, "serving_after_departure", "stale_stops", None),
        "start": (_handle_start, "serving_after_departure", "stale_starts", None),
        "failover": (
            _handle_failover, "serving_after_departure", "stale_failovers", None,
        ),
        "ba-fwd": (_handle_forwarded_ba, None, None, None),
        "sta-sync": (_handle_sta_sync, None, None, None),
        "serving-update": (_handle_serving_update, None, None, None),
        "ctrl-heartbeat": (_ctrl_beat, None, None, None),
        "ctrl-takeover": (_rehome, None, None, "stale_takeovers"),
        "client-departed": (_client_departed, None, None, None),
    }
