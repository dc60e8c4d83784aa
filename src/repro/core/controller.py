"""The WGTT controller (paper Figure 5, control plane).

One commodity Linux box on the Ethernet backhaul runs everything:

* **CSI ingestion** — every AP forwards a CSI report per overheard
  client frame; the controller computes ESNR and feeds the selector.
* **AP selection** — maximal median ESNR over the sliding window, with
  time hysteresis (§3.1.1).
* **Downlink fan-out** — each downlink datagram gets a 12-bit index and
  is tunneled to every AP in the client's fan-out set (§3.1.2).
* **Switching** — the stop/start/ack coordinator (§3.1.2).
* **Uplink de-duplication** — first copy wins, by (source, IP-ID)
  (§3.2.2–3.2.3).
"""

from __future__ import annotations

from dataclasses import asdict
from typing import Any, Callable, Dict, List, Optional, Set, Tuple

from repro.channel.csi import CsiReport
from repro.core.assoc_sync import (
    STA_SYNC_WIRE_BYTES,
    AssociationDirectory,
    DepartedMemory,
    StaInfo,
)
from repro.core.admission import AdmissionPacer
from repro.core.config import WgttConfig
from repro.core.cyclic_queue import IndexAllocator
from repro.core.dedup import PacketDeduplicator
from repro.core.liveness import LivenessTracker
from repro.core.selection import ApSelector
from repro.core.switching import SwitchCoordinator, SwitchRecord
from repro.ha.checkpoint import (
    CHECKPOINT_VERSION,
    CLIENT_STATE_VERSION,
    ControllerCheckpoint,
)
from repro.net.backhaul import EthernetBackhaul
from repro.net.packet import Packet, src_bits
from repro.net.tunnel import tunnel_wire_size
from repro.obs.metrics import metric_key
from repro.sim.engine import MS, Simulator, Timer
from repro.sim.rng import RngRegistry

#: How often the controller re-evaluates AP selection per client.
SELECTION_PERIOD_US = 2 * MS

#: Emergency-failover CSI lookback.  The 10 ms selection window has
#: usually expired by the time a crash is *detected* (~80 ms), so
#: the failover target is chosen from the controller's last-heard
#: ESNR cache instead, considering any live AP that heard the
#: client within this horizon.  Never used on the regular
#: selection path.
FAILOVER_LOOKBACK_US = 500 * MS

#: Primary → array "ctrl-heartbeat" broadcast period.  Both the
#: standby (promotion trigger) and every AP (buffer-and-hold
#: trigger) watch this stream.
CONTROLLER_HEARTBEAT_INTERVAL_US = 20 * MS

#: serving-claim answers a takeover: claims arrive within a backhaul
#: round trip of the controller's ctrl-takeover.  A claim landing long
#: after the current epoch began can only be a replayed capture from
#: an *earlier* takeover — accepting it would flip a client onto
#: whatever AP served it back then.
SERVING_CLAIM_WINDOW_US = 2_000_000


class ClientState:
    """Controller-side per-client bookkeeping."""

    def __init__(self, client_id: str, serving_ap: str, now_us: int):
        self.client_id = client_id
        self.serving_ap = serving_ap
        self.last_switch_us = now_us
        #: The periodic AP-selection timer; its tick also retries the
        #: failover of a dead serving AP.
        self.selection_timer: Optional[Timer] = None  # volatile-ok: a Timer is not data; the client record carries its deadline

    def stop_selection(self) -> None:
        if self.selection_timer is not None:
            self.selection_timer.stop()

    # -- checkpoint support -------------------------------------------

    def to_state(self) -> dict:
        return {
            "client_id": self.client_id,
            "serving_ap": self.serving_ap,
            "last_switch_us": self.last_switch_us,
        }

    @classmethod
    def from_state(cls, state: dict) -> "ClientState":
        return cls(
            state["client_id"], state["serving_ap"], state["last_switch_us"]
        )


class WgttController:
    """Central coordinator of the AP array."""

    #: ``stats`` counters that only move under an adversarial schedule
    #: (or a sharded deployment): :meth:`collect_metrics` hides them
    #: while zero so a healthy run's snapshot — and every soak
    #: fingerprint folded from it — keeps its key set.  Adding a name
    #: here is all it takes to add a lazily exported counter.
    LAZY_STATS: Tuple[str, ...] = (
        # Replayed pre-departure sta-syncs / serving claims rejected.
        "stale_sta_syncs",
        "stale_serving_claims",
        # Sharded deployments only: uplinks rejected by the ownership
        # gate.
        "uplink_unowned",
    )

    def __init__(
        self,
        sim: Simulator,
        backhaul: EthernetBackhaul,
        rng: RngRegistry,
        config: Optional[WgttConfig] = None,
        controller_id: str = "controller",
    ):
        self._sim = sim
        self._backhaul = backhaul
        self._config = config or WgttConfig()
        self.controller_id = controller_id
        self.selector = ApSelector(metric=self._config.selection_metric)
        self.coordinator = SwitchCoordinator(sim, backhaul, controller_id)
        self.coordinator.on_complete = self._switch_completed
        self.liveness = LivenessTracker(sim, self._config.heartbeat_interval_us)
        self.liveness.on_down = self._ap_down
        self.liveness.on_up = self._ap_up
        self.dedup = PacketDeduplicator()
        self.directory = AssociationDirectory()
        self._index_alloc = IndexAllocator(self._config.cyclic_queue_size)
        self._clients: Dict[str, ClientState] = {}
        self._ap_ids: Set[str] = set()
        #: False while crashed (fault injection): timers stopped, the
        #: backhaul endpoint dark, volatile protocol state lost.
        self.alive = True  # volatile-ok: liveness is a property of the process, not the state — a restored controller is alive by construction
        #: "primary" | "standby" | "active" (a promoted standby) |
        #: "inert" (a restarted half of an HA pair, see :meth:`restart`).
        self.role = "primary"  # volatile-ok: the process's part in its HA pair, like alive; a checkpoint moves state between roles, never a role
        #: HA peer (warm standby) backhaul id; when set, serving
        #: updates are mirrored to it (part of the standby's warm feed).
        self.ha_peer: Optional[str] = None
        self._ctrl_heartbeat_timer = Timer(
            self._sim, self._ctrl_heartbeat_tick
        )
        #: APs the liveness tracker has declared DEAD: excluded from
        #: selection, fan-out, and switch targets until they hello back.
        self._dead_aps: Set[str] = set()
        #: client -> ap -> (time_us, esnr_db): the most recent CSI heard
        #: per link, never pruned (bounded by #clients × #APs).  Only
        #: the emergency-failover path reads this — by the time a crash
        #: is *detected* the 10 ms selection window has expired, but
        #: the neighbours that heard the client ~100 ms ago are still
        #: by far the best guess for where it is.
        self._last_heard: Dict[str, Dict[str, Tuple[int, float]]] = {}
        #: serving-claim(client) received before the client's sta-sync
        #: (the APs' answer to a takeover): applied at registration time.
        self._pending_claims: Dict[str, str] = {}
        #: Controller epoch: when this incarnation's authority began
        #: (construction, restart, or standby promotion).  Serving
        #: generations are ``(epoch_us, seq)`` — lexicographic order
        #: makes every post-restart update dominate every pre-restart
        #: one without any cross-incarnation counter handoff.
        self.epoch_us = sim.now  # volatile-ok: per-incarnation authority; a promoted standby must mint a fresh, strictly-later epoch or replays from the dead primary could win
        self._serving_seq = 0  # volatile-ok: sequence within this incarnation's epoch; restarts at 0 under the fresh epoch by design
        #: Recently departed clients, for rejecting replayed sta-syncs
        #: that would resurrect them.
        self._departed_at = DepartedMemory()

        #: Delivered (de-duplicated) uplink datagrams go here.
        self.on_uplink: Callable[[Packet], None] = lambda packet: None
        #: Fired whenever a client's serving AP changes (also at
        #: association). Scenario glue uses it, e.g. to retune the
        #: client's radio in the multi-channel ablation.
        self.on_serving_update: Callable[[str, str], None] = (
            lambda client_id, ap_id: None
        )
        #: Ownership predicate installed by the shard manager.  When
        #: set, uplinks from clients this controller does not own are
        #: rejected *before* de-duplication: near a shard boundary the
        #: neighbour shard's APs decode (and forward) the same frames,
        #: and without the gate both shards would deliver them upstream.
        #: None (the default) disables the check entirely.
        self.owns_client: Optional[Callable[[str], bool]] = None
        #: The dispatch table: backhaul kind -> ``handler(src, payload)``.
        #: A kind without an entry is ignored.  The one extension point:
        #: the warm standby adds its feed, the shard glue the inter-shard
        #: handoff protocol (which rides this endpoint without new
        #: controller state).
        self.handlers: Dict[str, Callable[[str, Any], None]] = {
            "csi": self._handle_csi,
            "uplink": self._handle_uplink,
            "ack": lambda src, message: self.coordinator.on_ack(message),
            "sta-sync": lambda src, info: self.register_association(info),
            "heartbeat": self._handle_heartbeat,
            "ap-hello": self._ap_rejoined,
            "serving-claim": self._handle_serving_claim,
            "edge-report": self._handle_edge_report,
        }
        #: (time_us, client, ap) — serving-AP timeline for Figure 14/15.
        self.serving_timeline: List[Tuple[int, str, str]] = []  # volatile-ok: observability export, never read by protocol logic; crash docs promise it survives like an external metrics pipeline

        self.stats = {  # volatile-ok: observability counters, same external-pipeline contract as serving_timeline
            "downlink_accepted": 0,
            "downlink_unassociated": 0,
            "fanout_messages": 0,
            "csi_reports": 0,
            "switches_initiated": 0,
            "heartbeats": 0,
            "aps_declared_dead": 0,
            "aps_recovered": 0,
            "ap_resyncs": 0,
            "failovers_initiated": 0,
            "failover_no_candidate": 0,
            "csi_dropped_dead_ap": 0,
            "cursor_fast_forwards": 0,
            "controller_crashes": 0,
            "controller_restarts": 0,
            "clients_departed": 0,
            "ctrl_heartbeats_sent": 0,
            "serving_claims": 0,
            "admission_passthrough": 0,
            "admission_enqueued": 0,
            "admission_released": 0,
            "admission_dropped": 0,
            **dict.fromkeys(self.LAZY_STATS, 0),
        }
        #: Per-client fair pacing (soak extension).  None unless
        #: ``admission_enabled`` — the default ingress path never
        #: consults it, keeping runs bit-identical to the pre-admission
        #: simulator.
        self._pacer: Optional[AdmissionPacer] = None
        if self._config.admission_enabled:
            self._pacer = AdmissionPacer(
                sim,
                self._config,
                self._release_downlink,
                self.stats,
            )
        backhaul.register(controller_id, self._on_backhaul)

    # ------------------------------------------------------------------
    # observability
    # ------------------------------------------------------------------

    def collect_metrics(self) -> Dict[str, object]:
        """Everything this controller publishes to the metrics snapshot."""
        stats = self.stats
        lazy = self.LAZY_STATS
        out: Dict[str, object] = {
            metric_key("controller_stat", name=name): value
            for name, value in stats.items()
            if value or name not in lazy
        }
        out["dedup_accepted"] = self.dedup.accepted
        out["dedup_duplicates"] = self.dedup.duplicates
        out["switches_completed"] = len(self.coordinator.history)
        out["switches_abandoned"] = self.coordinator.abandoned
        out["switches_aborted"] = self.coordinator.aborted
        out["liveness_events"] = len(self.liveness.events)
        # Bounded-memory gauges: each of these must plateau on a soak.
        out["controller_tracked_clients"] = len(self._clients)
        out["controller_index_cursors"] = self._index_alloc.tracked_clients()
        out["controller_selector_series"] = self.selector.series_count()
        out["controller_dedup_window"] = self.dedup.window_size()
        if self._pacer is not None:
            out["admission_backlog"] = self._pacer.backlog()
            out["admission_clients"] = self._pacer.tracked_clients()
        if self._backhaul.adversary_armed:
            # stale_acks moves on ordinary retransmissions too, so it
            # must not surface (new key!) in adversary-free snapshots.
            out["switches_stale_acks"] = self.coordinator.stale_acks
        return out

    # ------------------------------------------------------------------
    # topology / association
    # ------------------------------------------------------------------

    def add_ap(self, ap_id: str) -> None:
        self._ap_ids.add(ap_id)

    def ap_ids(self) -> Set[str]:
        """The APs this controller manages (inspection for tests)."""
        return set(self._ap_ids)

    def dead_aps(self) -> Set[str]:
        return set(self._dead_aps)

    def client_state(self, client_id: str) -> Optional[ClientState]:
        return self._clients.get(client_id)

    def tracks(self, client_id: str) -> bool:
        return client_id in self._clients

    def tracked_clients(self) -> List[str]:
        return sorted(self._clients)

    def serving_ap(self, client_id: str) -> Optional[str]:
        state = self._clients.get(client_id)
        return state.serving_ap if state else None

    def register_association(self, info: StaInfo) -> None:
        """Install a client (from sta-sync replication or directly)."""
        if self._departed_at.is_replay(info):
            # Admitting it would resurrect the client — recreating its
            # selection timer and serving entry with no radio behind
            # them, leaking both forever under churn.
            self.stats["stale_sta_syncs"] += 1
            tracer = self._sim.obs.trace
            if tracer.active:
                tracer.emit(
                    "controller",
                    "stale-sta-sync",
                    track="assoc",
                    detail=True,
                    client=info.client,
                )
            return
        self.directory.admit(info)
        if info.client not in self._clients:
            serving = self._pending_claims.pop(info.client, info.first_ap)
            client = self._clients[info.client] = ClientState(
                info.client, serving, self._sim.now
            )
            self._publish_serving(info.client, serving)
            self._start_selection_loop(client)

    def deregister_client(self, client_id: str) -> None:
        """Client departure: free every per-client resource.

        Closes the unbounded-growth holes a transit system would
        otherwise accumulate over millions of one-ride commuters (see
        :meth:`forget`), remembers the departure against replayed
        sta-syncs, and tells every AP to drop the client's cyclic queue
        and serving duty.
        """
        if client_id not in self._clients:
            return
        self.stats["clients_departed"] += 1
        self._departed_at.depart(client_id, self._sim.now)
        self.forget(client_id)
        if self.coordinator.busy(client_id):
            self.coordinator.abort(client_id, reason="client departed")
        for ap in sorted(self._ap_ids):
            self._backhaul.send_control(
                self.controller_id, ap, "client-departed", client_id
            )

    def forget(self, client_id: str) -> None:
        """Free every per-client store and timer, tracked or not: a
        region also holds CSI its APs overheard from a neighbour
        region's client."""
        client = self._clients.pop(client_id, None)
        if client is not None:
            client.stop_selection()
        self.directory.remove(client_id)
        self.selector.forget_client(client_id)
        self._index_alloc.forget_client(client_id)
        self._last_heard.pop(client_id, None)
        self._pending_claims.pop(client_id, None)
        if self._pacer is not None:
            self._pacer.forget_client(client_id)

    def _start_selection_loop(
        self, client: ClientState, first_deadline_us: Optional[int] = None
    ) -> None:
        """Periodic AP-selection evaluation for one client.

        Running on a fixed period (rather than on CSI arrival) means
        every decision sees the complete window of reports, not just
        whichever AP's report happened to arrive first.  The same tick
        retries the failover of a dead serving AP.  Restore passes
        ``first_deadline_us`` so a restored controller's loop stays in
        phase with the original's.
        """
        client_id = client.client_id

        def tick():
            self._maybe_switch(client_id)
            timer.start(SELECTION_PERIOD_US)

        timer = client.selection_timer = Timer(self._sim, tick)
        if first_deadline_us is None:
            timer.start(SELECTION_PERIOD_US)
        else:
            timer.start_at(first_deadline_us)

    def _next_serving_gen(self) -> Tuple[int, int]:
        """Generation tag for one serving-update publication.

        ``(epoch_us, seq)`` compares lexicographically: within an
        incarnation ``seq`` orders updates exactly; across a restart or
        promotion the fresh (strictly later) epoch dominates every tag
        the previous incarnation ever issued.  Receivers drop any
        update whose tag is not strictly newer than the one they hold,
        which makes duplicated or replayed serving-updates harmless.
        """
        self._serving_seq += 1
        return (self.epoch_us, self._serving_seq)

    def _publish_serving(self, client_id: str, ap_id: str) -> None:
        gen = self._next_serving_gen()
        self.serving_timeline.append((self._sim.now, client_id, ap_id))
        tracer = self._sim.obs.trace
        tracer.emit(
            "controller",
            "serving-update",
            track="serving",
            client=client_id,
            ap=ap_id,
            gen=gen,
        )
        self.on_serving_update(client_id, ap_id)
        targets = sorted(self._ap_ids)
        if self.ha_peer is not None:
            # Mirror to the warm standby: serving updates are part of
            # the event feed that keeps it current between checkpoints.
            targets.append(self.ha_peer)
        for ap in targets:
            self._backhaul.send_control(
                self.controller_id,
                ap,
                "serving-update",
                (client_id, ap_id, gen),
            )

    # ------------------------------------------------------------------
    # downlink
    # ------------------------------------------------------------------

    def accept_downlink(self, packet: Packet) -> None:
        """Entry point for server traffic headed to a client."""
        if not self.alive:
            return  # a crashed controller accepts nothing
        client_id = packet.dst
        state = self._clients.get(client_id)
        if state is None:
            self.stats["downlink_unassociated"] += 1
            return
        if self._pacer is not None:
            # Admission control on: over-rate traffic parks in the
            # pacing queue; the round-robin release timer re-enters via
            # _release_downlink when it conforms.
            released = self._pacer.admit(client_id, packet)
            if released is None:
                return
            packet = released
        self._fanout(client_id, state, packet)

    def _release_downlink(self, client_id: str, packet: Packet) -> None:
        """Pacer release callback: fan out a formerly parked packet."""
        if not self.alive:
            return
        state = self._clients.get(client_id)
        if state is None:
            self.stats["downlink_unassociated"] += 1
            return
        self._fanout(client_id, state, packet)

    def _fanout(
        self, client_id: str, state: ClientState, packet: Packet
    ) -> None:
        self.stats["downlink_accepted"] += 1
        index = self._index_alloc.allocate(client_id)
        if self._config.fanout_enabled:
            fanout = set(self.selector.candidates(client_id, self._sim.now))
            fanout.add(state.serving_ap)
        else:
            fanout = {state.serving_ap}
        fanout &= self._ap_ids
        if self._dead_aps:
            # Dead APs receive nothing: their tunnel endpoint is gone,
            # and the bytes would only burn backhaul capacity.
            fanout -= self._dead_aps
        wire = tunnel_wire_size(packet, downlink=True)
        for ap_id in sorted(fanout):
            self.stats["fanout_messages"] += 1
            self._backhaul.send(
                self.controller_id,
                ap_id,
                "data",
                (client_id, index, packet),
                size_bytes=wire,
            )

    # ------------------------------------------------------------------
    # backhaul dispatch
    # ------------------------------------------------------------------

    def _on_backhaul(self, src: str, kind: str, payload: Any) -> None:
        if not self.alive or self.role == "inert":
            return  # the backhaul drops a dead node's; an inert one's too
        try:
            handler = self.handlers[kind]
        except KeyError:
            return
        handler(src, payload)

    def _handle_heartbeat(self, src: str, payload: object) -> None:
        self.stats["heartbeats"] += 1
        self.liveness.beat(src)

    def _handle_edge_report(self, src: str, payload: Any) -> None:
        """Takeover cursor resync: an AP's per-client cyclic write edges.

        A new incarnation's :class:`IndexAllocator` is behind the APs:
        empty after a cold restart, restored from a checkpoint up to one
        shipping interval stale after a promotion.  Re-using indices the
        previous incarnation already allocated would overwrite
        undelivered cyclic-queue slots, or land a lap behind the reader.
        Each re-homing AP reports its write edges and the cursors
        fast-forward (never backwards) to cover them.
        """
        for client_id, edge in sorted(payload.items()):
            if self._index_alloc.fast_forward(client_id, int(edge)):
                self.stats["cursor_fast_forwards"] += 1

    def _handle_serving_claim(self, src: str, client_id: str) -> None:
        """Takeover resync: the AP actually serving ``client_id``
        corrects the new incarnation's first-AP guess or stale map."""
        if self._sim.now - self.epoch_us > SERVING_CLAIM_WINDOW_US:
            # Claims only legitimately arrive within a backhaul round
            # trip of our own ctrl-takeover; this one is a stale replay
            # from an earlier takeover and would flip the client onto
            # whatever AP served it back then.
            self.stats["stale_serving_claims"] += 1
            tracer = self._sim.obs.trace
            if tracer.active:
                tracer.emit(
                    "controller",
                    "stale-serving-claim",
                    track="serving",
                    detail=True,
                    client=client_id,
                    ap=src,
                )
            return
        self.stats["serving_claims"] += 1
        state = self._clients.get(client_id)
        if state is None:
            self._pending_claims[client_id] = src
            return
        if state.serving_ap != src and src in self._ap_ids:
            state.serving_ap = src
            self._publish_serving(client_id, src)

    def _handle_csi(self, src: str, report: CsiReport) -> None:
        if report.ap_id in self._dead_aps:
            # In-flight report from an AP declared dead moments ago:
            # admitting it would resurrect the AP in the selector.
            self.stats["csi_dropped_dead_ap"] += 1
            return
        self.stats["csi_reports"] += 1
        self.selector.record(
            report.client_id, report.ap_id, report.time_us, report.esnr_db
        )
        self._last_heard.setdefault(report.client_id, {})[report.ap_id] = (
            report.time_us,
            report.esnr_db,
        )

    def _handle_uplink(self, src: str, packet: Packet) -> None:
        if self.owns_client is not None and not self.owns_client(
            packet.src
        ):
            self.stats["uplink_unowned"] += 1
            return
        if self.dedup.accept(packet):
            self.on_uplink(packet)
            if self.ha_peer is not None and packet.protocol != "arp":
                # Mirror the key to the warm standby, like serving
                # updates: a promoted standby must recognise copies of
                # datagrams delivered after the last checkpoint.
                self._backhaul.send_control(
                    self.controller_id,
                    self.ha_peer,
                    "dedup-key",
                    packet.dedup_key(),
                )

    # ------------------------------------------------------------------
    # selection / switching
    # ------------------------------------------------------------------

    def _maybe_switch(self, client_id: str) -> None:
        state = self._clients.get(client_id)
        if state is None:
            return
        now = self._sim.now
        if self.coordinator.busy(client_id):
            return
        if state.serving_ap in self._dead_aps:
            # Until a failover lands the client on a live AP, this tick
            # retries it and hysteresis-gated selection stays out of
            # the way.
            self._emergency_failover(client_id, state.serving_ap)
            return
        if now - state.last_switch_us < self._config.time_hysteresis_us:
            return
        best = self.selector.best_ap(
            client_id,
            now,
            incumbent=state.serving_ap,
            margin_db=self._config.switch_margin_db,
        )
        if best is None or best == state.serving_ap or best not in self._ap_ids:
            return
        if best in self._dead_aps:
            return  # never switch toward a dead AP
        state.last_switch_us = now
        self.stats["switches_initiated"] += 1
        self.coordinator.initiate(client_id, state.serving_ap, best)

    def _switch_completed(self, record: SwitchRecord) -> None:
        state = self._clients.get(record.client)
        if state is not None:
            state.serving_ap = record.to_ap
        self._publish_serving(record.client, record.to_ap)

    # ------------------------------------------------------------------
    # AP liveness and emergency failover
    # ------------------------------------------------------------------

    def _ap_down(self, ap_id: str) -> None:
        """Liveness declared an AP DEAD: quarantine it everywhere and
        evacuate every client it was serving."""
        if ap_id in self._dead_aps:
            return
        self._dead_aps.add(ap_id)
        self.stats["aps_declared_dead"] += 1
        tracer = self._sim.obs.trace
        tracer.emit("controller", "ap-dead", track="liveness", ap=ap_id)
        # Its CSI history must stop competing in selection immediately
        # (and its windows are freed — the unbounded-growth fix).
        self.selector.forget_ap(ap_id)
        # Any handshake involving the dead AP can never finish.
        self.coordinator.abort_for_ap(ap_id)
        for client_id in sorted(self._clients):
            if self._clients[client_id].serving_ap == ap_id:
                self._emergency_failover(client_id, ap_id)

    def _ap_up(self, ap_id: str) -> None:
        if ap_id in self._dead_aps:
            self._dead_aps.discard(ap_id)
            self.stats["aps_recovered"] += 1
            tracer = self._sim.obs.trace
            tracer.emit(
                "controller", "ap-recovered", track="liveness", ap=ap_id
            )

    def _ap_rejoined(self, ap_id: str, payload: object) -> None:
        """ap-hello: a (re)started AP announces itself.

        The controller replays the association directory (the paper's
        hostapd sta-sync, §4.3) and the current serving map so the AP
        can overhear, measure CSI, and accept fan-out for every
        admitted client again.  The restart lost the AP's serving duty:
        its clients are evacuated as a dead verdict would have done,
        and the AP takes back, over a failover to itself, each one no
        live AP has heard."""
        if ap_id not in self._ap_ids:
            self.add_ap(ap_id)
        self._ap_down(ap_id)
        self.liveness.mark_alive(ap_id)
        self._ap_up(ap_id)
        for client_id in sorted(self._clients):
            stranded = self._clients[client_id].serving_ap == ap_id
            if stranded and not self.coordinator.busy(client_id):
                self._fail_over(client_id, ap_id, ap_id)
        self.stats["ap_resyncs"] += 1
        for client_id in sorted(self.directory.clients()):
            self._backhaul.send(
                self.controller_id,
                ap_id,
                "sta-sync",
                self.directory.get(client_id),
                size_bytes=STA_SYNC_WIRE_BYTES,
            )
            state = self._clients.get(client_id)
            if state is not None:
                self._backhaul.send_control(
                    self.controller_id,
                    ap_id,
                    "serving-update",
                    (client_id, state.serving_ap, self._next_serving_gen()),
                )

    def _emergency_failover(self, client_id: str, dead_ap: str) -> None:
        """The serving AP died: restart the client at the next-best
        live AP *now*, bypassing time hysteresis.

        The paper's own fan-out makes this recovery nearly free — the
        target AP's cyclic queue already holds the client's downlink
        backlog, so a single one-hop handshake restarts the flow."""
        state = self._clients.get(client_id)
        if state is None or state.serving_ap != dead_ap:
            return
        if self.coordinator.busy(client_id):
            # A regular switch is mid-flight to/from the dead AP (or
            # elsewhere); tear it down — the slot is needed now.
            self.coordinator.abort(
                client_id, reason=f"serving AP {dead_ap} died"
            )
        now = self._sim.now
        target = self.selector.best_ap(client_id, now, incumbent=None)
        if target is not None and (
            target in self._dead_aps
            or target not in self._ap_ids
            or target == dead_ap
        ):
            live = [
                ap
                for ap in self.selector.candidates(client_id, now)
                if ap in self._ap_ids and ap not in self._dead_aps
            ]
            target = live[0] if live else None
        if target is None:
            target = self._last_heard_live_ap(client_id, now)
        if target is None:
            # Graceful degradation: no live AP has heard the client
            # recently.  The selection tick retries — the client's
            # keepalives will reach somebody as it moves.
            self.stats["failover_no_candidate"] += 1
            tracer = self._sim.obs.trace
            tracer.emit(
                "controller",
                "failover-no-candidate",
                track=f"switch/{client_id}",
                client=client_id,
                dead_ap=dead_ap,
            )
            return
        self._fail_over(client_id, dead_ap, target)

    def _fail_over(self, client_id: str, dead_ap: str, target: str) -> None:
        """Start the one-hop failover handshake of a tracked client."""
        self.stats["failovers_initiated"] += 1
        tracer = self._sim.obs.trace
        tracer.emit(
            "controller",
            "failover-initiated",
            track=f"switch/{client_id}",
            client=client_id,
            dead_ap=dead_ap,
            target=target,
        )
        self._clients[client_id].last_switch_us = self._sim.now
        self.coordinator.initiate_failover(client_id, dead_ap, target)

    def _last_heard_live_ap(
        self, client_id: str, now_us: int
    ) -> Optional[str]:
        """Best live AP from the last-heard ESNR cache (emergency only).

        The regular selection window (10 ms) has usually expired by the
        time a crash is *detected* (~80 ms of heartbeat lag), so the
        emergency path widens the horizon to ``FAILOVER_LOOKBACK_US``
        and picks the live AP that most recently heard the client well.
        Strongest ESNR wins; ties break on ap_id for determinism.
        """
        heard = self._last_heard.get(client_id)
        if not heard:
            return None
        horizon = now_us - FAILOVER_LOOKBACK_US
        best: Optional[Tuple[float, str]] = None
        for ap_id in sorted(heard):
            if ap_id in self._dead_aps or ap_id not in self._ap_ids:
                continue
            time_us, esnr_db = heard[ap_id]
            if time_us < horizon:
                continue
            if best is None or esnr_db > best[0]:
                best = (esnr_db, ap_id)
        return best[1] if best else None

    # ------------------------------------------------------------------
    # state: checkpoint, restore, per-client handoff slice
    # ------------------------------------------------------------------

    def snapshot(self) -> ControllerCheckpoint:
        """Every volatile protocol store, as one checkpoint (read-only):
        a :meth:`_client_record` for every client any per-client store
        holds, plus the controller-wide stores — in-flight switch
        handshakes, the dedup key window, the liveness table, the AP
        sets, pending serving claims and the departed-client guard.
        JSON-native throughout (lists, not tuples), so the in-memory
        checkpoint equals its own serialize/parse round trip.
        """
        clients = set(self._clients).union(
            self.directory.clients(),
            self.selector.clients(),
            self._index_alloc.clients(),
            self._last_heard,
        )
        state = {
            "clients": {
                client_id: self._client_record(client_id)
                for client_id in sorted(clients)
            },
            "coordinator": self.coordinator.snapshot(),
            "liveness": self.liveness.snapshot(),
            "dedup": self.dedup.snapshot(),
            "ap_ids": sorted(self._ap_ids),
            "dead_aps": sorted(self._dead_aps),
            "pending_claims": dict(self._pending_claims),
            "departed_at": self._departed_at.snapshot(),
        }
        return ControllerCheckpoint(
            version=CHECKPOINT_VERSION,
            taken_at_us=self._sim.now,
            controller_id=self.controller_id,
            state=state,
        )

    def _client_record(self, client_id: str) -> dict:
        """One client's share of every per-client store, JSON-native
        (``[int, float]`` pairs): the unit of both the checkpoint and
        the handoff slice.  ``state`` is None for a client this
        controller does not track (CSI overheard from a neighbour
        region's client, say); the selection deadline is absolute.
        """
        client = self._clients.get(client_id)
        state: Optional[dict] = None
        selection: Optional[int] = None
        if client is not None:
            state = client.to_state()
            timer = client.selection_timer
            selection = None if timer is None else timer.deadline_us
        sta = None
        if self.directory.is_associated(client_id):
            sta = asdict(self.directory.get(client_id))
        heard = self._last_heard.get(client_id, {})
        windows = self.selector.client_snapshot(client_id)
        return {
            "state": state,
            "sta": sta,
            "selector": {
                ap_id: [[int(t), float(v)] for t, v in entries]
                for ap_id, entries in windows.items()
            },
            "index_cursor": self._index_alloc.peek(client_id),
            "last_heard": {
                ap_id: [int(t), float(v)] for ap_id, (t, v) in heard.items()
            },
            "selection_deadline_us": selection,
        }

    def _load_record(self, client_id: str, record: dict) -> None:
        """Install one :meth:`_client_record`, state-only: no message,
        no timer.  What a store already holds for the client wins (CSI
        overheard here is fresher), but the record's index cursor
        continues.  An untracked client's cursor at 0 is left out: it
        allocates like none."""
        if record["sta"] is not None:
            self.directory.admit(StaInfo(**record["sta"]))
        self.selector.restore_client(client_id, record["selector"])
        if record["state"] is not None or record["index_cursor"]:
            self._index_alloc.set_cursor(client_id, record["index_cursor"])
        heard = self._last_heard.setdefault(client_id, {})
        for ap_id in sorted(record["last_heard"]):
            t, v = record["last_heard"][ap_id]
            heard.setdefault(ap_id, (int(t), float(v)))
        if not heard:
            del self._last_heard[client_id]
        if record["state"] is not None:
            self._clients[client_id] = ClientState.from_state(record["state"])

    def restore(self, checkpoint: ControllerCheckpoint) -> None:
        """Replace this controller's state with ``checkpoint``'s.

        State-only — no backhaul messages.  Timers re-arm at their
        checkpointed absolute deadlines (clamped to now) in a fixed
        order — selection by client, the liveness check, pending switch
        retransmissions — so same-microsecond ties resolve identically
        on every restore of the same checkpoint.
        """
        if checkpoint.version != CHECKPOINT_VERSION:
            raise ValueError(
                f"checkpoint version {checkpoint.version} != "
                f"supported {CHECKPOINT_VERSION}"
            )
        state = checkpoint.state
        self._forget_state()
        self._ap_ids = set(state["ap_ids"])
        self._dead_aps = set(state["dead_aps"])
        self.dedup.restore(state["dedup"])
        records = state["clients"]
        for client_id in sorted(records):
            self._load_record(client_id, records[client_id])
        self._pending_claims = dict(state["pending_claims"])
        self._departed_at.restore(state["departed_at"])
        for client_id in sorted(self._clients):
            deadline = records[client_id]["selection_deadline_us"]
            if deadline is not None:
                self._start_selection_loop(
                    self._clients[client_id], int(deadline)
                )
        self.liveness.restore(state["liveness"])
        self.coordinator.restore(state["coordinator"])

    def _forget_state(self) -> None:
        """Stop every timer the protocol state owns and empty every
        store :meth:`snapshot` reads, the AP list aside: what a crash
        loses and :meth:`restore` refills, the admission pacer's backlog
        included.  Durable observability — the switch history and abort
        counts, the dedup counters, the liveness events — survives, as
        an external metrics pipeline would."""
        if self._pacer is not None:
            self._pacer.halt()
        for client_id in sorted(self._clients):
            self._clients[client_id].stop_selection()
        self.coordinator.crash()
        self.liveness.crash()
        self.selector.clear()
        self.dedup.crash()
        self.directory = AssociationDirectory()
        self._index_alloc.clear()
        self._clients = {}
        self._dead_aps = set()
        self._last_heard = {}
        self._pending_claims = {}
        self._departed_at.clear()

    def client_slice(self, client_id: str) -> dict:
        """One tracked client's :meth:`_client_record`, for an
        inter-shard handoff (KeyError if untracked), with its uplink
        dedup keys and an envelope.

        Read-only, and must run *before* :meth:`deregister_client` on
        the sending side, which drops the very state captured here.
        The in-flight switch (if any) rides along for audit only: its
        APs belong to the sending shard.
        """
        if client_id not in self._clients:
            raise KeyError(client_id)
        return {
            "version": CLIENT_STATE_VERSION,
            "client": client_id,
            "extracted_at_us": self._sim.now,
            "from_controller": self.controller_id,
            **self._client_record(client_id),
            "dedup_keys": self.dedup.keys_for_src(src_bits(client_id)),
            "pending_switch": self.coordinator.snapshot()["pending"].get(
                client_id
            ),
        }

    def merge_client(
        self, client_slice: dict, serving_ap: Optional[str] = None
    ) -> bool:
        """Graft a :meth:`client_slice` from another controller: load
        its record as a restore does, then publish the serving AP and
        re-arm the selection loop (not the pending switch: it references
        the sending shard's APs).

        Returns False (a no-op) if this controller already tracks the
        client — handoff retransmissions make duplicate arrivals
        routine.  ``serving_ap`` overrides the transferred serving AP
        with one this controller's region owns.
        """
        if client_slice["version"] != CLIENT_STATE_VERSION:
            raise ValueError(
                f"client state version {client_slice['version']} != "
                f"supported {CLIENT_STATE_VERSION}"
            )
        client_id = client_slice["client"]
        if client_id in self._clients:
            return False
        self._load_record(client_id, client_slice)
        client = self._clients[client_id]
        if serving_ap is not None:
            client.serving_ap = serving_ap
        self.dedup.merge_keys(client_slice["dedup_keys"])
        # A client handed back after departing elsewhere is live again.
        self._departed_at.pop(client_id, None)
        self._publish_serving(client_id, client.serving_ap)
        deadline = client_slice["selection_deadline_us"]
        self._start_selection_loop(
            client, None if deadline is None else int(deadline)
        )
        return True

    # ------------------------------------------------------------------
    # controller crash / restart / HA plumbing
    # ------------------------------------------------------------------

    def crash(self) -> None:
        """Fault injection: the controller process dies.

        Every timer stops (a dead box retransmits nothing), the backhaul
        endpoint goes dark, and all **volatile** protocol state is lost —
        exactly what :meth:`restore` replaces, so a crashed controller
        snapshots like a freshly built one.  Durable observability
        (``stats``, ``serving_timeline``, switch ``history``) survives,
        as a real deployment's external metrics pipeline would.
        """
        if not self.alive:
            return
        self.alive = False
        self.stats["controller_crashes"] += 1
        tracer = self._sim.obs.trace
        tracer.emit(
            "controller", "ctrl-crash", track="ha", node=self.controller_id
        )
        self._ctrl_heartbeat_timer.stop()
        self._forget_state()
        self._backhaul.set_node_down(self.controller_id, True)

    def restart(self) -> None:
        """Cold restart after :meth:`crash` — empty-state boot.

        Alone in its region, or as a promoted standby, the controller
        takes over (:meth:`_take_over`).  Either half of an HA pair
        otherwise comes back inert — it handles no message and sends
        none, for good — so a standby promotes on its primary's silence
        however short the crash, and a rebooted standby leaves the
        primary be.
        """
        if self.alive:
            return
        self.alive = True
        self.stats["controller_restarts"] += 1
        tracer = self._sim.obs.trace
        tracer.emit(
            "controller", "ctrl-restart", track="ha", node=self.controller_id
        )
        self._backhaul.set_node_down(self.controller_id, False)
        if self.ha_peer is not None or self.role == "standby":
            self.role = "inert"
            return
        self._take_over()

    def _take_over(self) -> None:
        """The one way the controller role changes hands, after a cold
        restart or a promotion: a new epoch, whose serving generations
        dominate every earlier incarnation's; a grace period for the
        liveness table; ``ctrl-takeover`` to every AP (each answers with
        claims, cyclic write edges and a directory replay); the serving
        map re-published; heartbeats from the active half of an HA pair.
        """
        now = self._sim.now
        self.epoch_us = now
        self._serving_seq = 0
        self.liveness.reset_clock(now)
        tracer = self._sim.obs.trace
        span = tracer.begin(
            "ha", "takeover-announce", track="ha", aps=len(self._ap_ids)
        )
        for ap_id in sorted(self._ap_ids):
            self._backhaul.send_control(
                self.controller_id, ap_id, "ctrl-takeover", self.epoch_us
            )
        for client_id in sorted(self._clients):
            self._publish_serving(
                client_id, self._clients[client_id].serving_ap
            )
        tracer.end(span)
        if self.role == "active":
            self.start_ctrl_heartbeats()

    def start_ctrl_heartbeats(self) -> None:
        """Begin periodic controller→AP heartbeats (HA mode only)."""
        if not self._ctrl_heartbeat_timer.armed:
            self._ctrl_heartbeat_timer.start(CONTROLLER_HEARTBEAT_INTERVAL_US)

    def _ctrl_heartbeat_tick(self) -> None:
        if not self.alive:
            return
        self.stats["ctrl_heartbeats_sent"] += 1
        for ap in sorted(self._ap_ids):
            self._backhaul.send_control(
                self.controller_id, ap, "ctrl-heartbeat", None
            )
        if self.ha_peer is not None:
            self._backhaul.send_control(
                self.controller_id, self.ha_peer, "ctrl-heartbeat", None
            )
        self._ctrl_heartbeat_timer.start(CONTROLLER_HEARTBEAT_INTERVAL_US)

    # ------------------------------------------------------------------
    # statistics
    # ------------------------------------------------------------------

    def switch_durations_ms(self) -> List[float]:
        return [d / 1000.0 for d in self.coordinator.completed_durations_us()]
