"""Region control planes, and what a corridor of several adds.

A WGTT testbed is a list of :class:`Shard` — one per contiguous
AP-cluster region (a :class:`RegionSpec`, from :func:`plan_regions`), each
with its own :class:`~repro.core.controller.WgttController`, its APs
and (``WgttConfig.ha_enabled``) a warm standby.  The paper's deployment
is one of them; everything that walks the control plane (instant
association, departure, downlink ingress, fault injection, the
invariant probes) goes through :attr:`Testbed.shards` whatever their
number; a region with a standby also ships its checkpoints and routes
ingress to whichever half of the pair is active.  A corridor of several
regions also gets a :class:`ShardManager`, which owns only what one
region never needs:

* **ownership** — every client belongs to exactly one shard; both
  controllers near a boundary decode the client's frames, so each
  controller carries an ownership gate (``owns_client``) that drops
  unowned uplinks *before* de-duplication, keeping upstream delivery
  single-copy;
* **inter-shard handoff** — a boundary-crossing client's controller
  state moves between shards as the controller's per-client slice
  (:meth:`WgttController.client_slice` / ``merge_client``), shipped as a
  lossy ``"shard-handoff"`` message (:mod:`repro.shard.handoff`), acked,
  and retransmitted by :class:`~repro.sim.engine.Retransmitter`;
* **routing** — server downlink ingress goes to the owning shard, and
  serving-map queries to its active controller.

Clients are placed by the testbed's spatial AP index
(:class:`~repro.mobility.spatial.ApGridIndex`), restricted to the
owning shard's APs, so candidate-set work stays O(nearby) no matter
how long the corridor grows.

A corridor of several regions requires ``instant_association`` —
over-the-air association broadcasts sta-sync to every backhaul node,
which would register the client with every shard at once.
"""

from __future__ import annotations

import json
from bisect import bisect_right
from collections import OrderedDict
from dataclasses import dataclass
from typing import TYPE_CHECKING, Dict, List, Optional, Tuple

from repro.core.access_point import WgttAccessPoint
from repro.core.assoc_sync import StaInfo
from repro.core.controller import WgttController
from repro.ha.checkpoint import canonical_json
from repro.net.packet import Packet
from repro.obs.metrics import metric_key
from repro.shard.handoff import (
    HANDOFF_ACK_KIND,
    HANDOFF_ACK_WIRE_BYTES,
    HANDOFF_KIND,
    HandoffAck,
    HandoffMsg,
)
from repro.sim.engine import Retransmitter, Timer

if TYPE_CHECKING:
    from repro.mobility.road import Position
    from repro.scenarios.testbed import ClientNode, Testbed, TestbedConfig

#: Receiving-side memory of completed handoff ids (duplicate arrivals
#: are re-acked, never re-merged); bounded FIFO.
COMPLETED_HANDOFF_CAP = 4096

#: Cadence of the shard manager's boundary scan — how often client
#: positions are checked against shard boundaries to trigger
#: inter-shard handoffs.
SCAN_INTERVAL_US = 20_000

#: Ack timeout for one ``shard-handoff`` state transfer.  Handoff
#: messages ride the lossy backhaul data path (they are *not* in
#: ``RELIABLE_KINDS``), so the sending shard retransmits the same
#: handoff id until acked.
HANDOFF_TIMEOUT_US = 30_000

#: Retransmissions before a handoff is abandoned; the client is
#: then freshly re-associated in the destination shard (state lost,
#: counted — never silently wedged).
HANDOFF_RETRY_LIMIT = 5


@dataclass(frozen=True)
class RegionSpec:
    """One contiguous corridor stretch owned by one controller.

    Regions tile the corridor: region k's APs carry the global ids
    ``ap{first_ap_index} .. ap{first_ap_index + len(ap_xs) - 1}``, so a
    single region spanning every AP is the paper's deployment.
    """

    #: Shard index (0 for the single-controller deployment).
    shard: int
    #: Global index of this region's first AP (id numbering offset).
    first_ap_index: int
    #: AP x-positions inside this region, corridor order.
    ap_xs: Tuple[float, ...]
    #: Backhaul id of the controller owning this region.
    controller_id: str = "controller"
    #: Backhaul id of the region's warm standby (None = no HA).
    standby_id: Optional[str] = None

    @property
    def ap_ids(self) -> Tuple[str, ...]:
        return tuple(
            f"ap{self.first_ap_index + i}" for i in range(len(self.ap_xs))
        )


#: Backhaul id of the classic (unsharded) region's warm standby.
STANDBY_ID = "controller-b"


def plan_regions(config: "TestbedConfig") -> List[RegionSpec]:
    """Partition the corridor into regions.

    ``config.shard`` unset: one region covering every AP under the
    classic ``"controller"`` id.  Set: ``ShardConfig.num_shards``
    contiguous chunks, as even as possible (earlier shards take the
    remainder), each with its own controller id.  Either way a region
    gets a warm standby iff ``wgtt.ha_enabled``.
    """
    xs = config.ap_xs()
    shard_cfg = config.shard
    wgtt = config.scheme == "wgtt"
    if shard_cfg is not None and not wgtt:
        raise ValueError("sharding requires the wgtt scheme")
    count = 1 if shard_cfg is None else shard_cfg.num_shards
    if count < 1:
        raise ValueError("num_shards must be >= 1")
    if count > len(xs):
        raise ValueError("more shards than APs")
    ha = wgtt and config.wgtt.ha_enabled
    base, extra = divmod(len(xs), count)
    regions: List[RegionSpec] = []
    start = 0
    for k in range(count):
        size = base + (1 if k < extra else 0)
        if shard_cfg is None:
            controller_id = "controller"
            standby_id = STANDBY_ID
        else:
            controller_id = shard_cfg.controller_id(k)
            standby_id = shard_cfg.standby_id(k)
        regions.append(
            RegionSpec(
                shard=k,
                first_ap_index=start,
                ap_xs=tuple(xs[start : start + size]),
                controller_id=controller_id,
                standby_id=standby_id if ha else None,
            )
        )
        start += size
    return regions


class Shard:
    """One region's control plane: controller, APs, optional standby.

    The classic single-controller deployment is one of these built
    without a ``manager`` (no ownership gate, no handoff dispatch).
    With a standby it is also the pair's glue (checkpoint shipping,
    ingress to :meth:`active_controller`), but no role hook.
    """

    def __init__(
        self,
        testbed: "Testbed",
        region: RegionSpec,
        manager: Optional["ShardManager"] = None,
    ):
        self.region = region
        self._sim = testbed.sim
        self._backhaul = testbed.backhaul
        self._ap_index = testbed.ap_index
        config = testbed.config
        self._checkpoint_interval_us = config.wgtt.checkpoint_interval_us
        self.controller = WgttController(
            testbed.sim,
            testbed.backhaul,
            testbed.rng,
            config.wgtt,
            controller_id=region.controller_id,
        )
        self.controller.on_uplink = testbed.deliver_uplink
        #: This shard's APs only (testbed.wgtt_aps is the global union).
        self.aps: Dict[str, WgttAccessPoint] = {}
        for offset, ap_id in enumerate(region.ap_ids):
            ap = WgttAccessPoint(
                testbed.sim,
                testbed.medium,
                testbed.backhaul,
                testbed.rng,
                ap_id,
                config.wgtt,
                controller_id=region.controller_id,
            )
            ap.device.channel = config.ap_channel(
                region.first_ap_index + offset
            )
            ap.device.start_beaconing()
            self.aps[ap_id] = ap
            testbed.wgtt_aps[ap_id] = ap
            self.controller.add_ap(ap_id)
        #: Downlink packets that arrived while no controller was active.
        self.lost_downlink = 0
        self.checkpoints_shipped = 0
        self.checkpoint_bytes = 0
        self._ship_timer = Timer(testbed.sim, self._ship_tick)
        self.standby = None
        if region.standby_id is not None:
            from repro.ha.standby import StandbyController

            standby = self.standby = StandbyController(
                testbed.sim,
                testbed.backhaul,
                testbed.rng,
                config.wgtt,
                controller_id=region.standby_id,
                primary_id=region.controller_id,
            )
            standby.on_uplink = testbed.deliver_uplink
            for ap_id in region.ap_ids:
                standby.add_ap(ap_id)
            self.controller.ha_peer = standby.controller_id
            # Heartbeats first, then shipping: timer arming order is
            # part of every run's bytes.
            self.controller.start_ctrl_heartbeats()
            if self._checkpoint_interval_us > 0:
                self._ship_timer.start(self._checkpoint_interval_us)
        if manager is not None:
            self._install_shard_glue(manager)

    def _install_shard_glue(self, manager: "ShardManager") -> None:
        """Ownership gate + handoff-kind dispatch, on both ends of the
        (possible) HA pair: they survive a promotion because the
        standby is wired identically."""
        region = self.region
        for ctrl in self.controllers():
            ctrl.owns_client = (
                lambda client_id, _k=region.shard, _c=ctrl: manager._owns(
                    _k, _c, client_id
                )
            )
            ctrl.handlers[HANDOFF_KIND] = (
                lambda src, msg, _k=region.shard, _c=ctrl: (
                    manager._handle_handoff(_k, _c, src, msg)
                )
            )
            ctrl.handlers[HANDOFF_ACK_KIND] = (
                lambda src, ack: manager._handle_ack(ack)
            )

    def admit(self, info: StaInfo) -> None:
        """Instant association's stand-in for the sta-sync broadcast:
        install ``info`` on every live AP of the region and on its
        standby (a crashed AP gets the replay when it says ap-hello)."""
        for ap in self.aps.values():
            if ap.alive:
                ap.directory.admit(info)
        if self.standby is not None:
            self.standby.directory.admit(info)

    def nearest_ap(self, position: "Position") -> str:
        """The region's AP nearest ``position`` — a live one when there
        is one (a mid-run arrival must not be homed onto a crashed AP;
        at t=0 everything is alive and the filter is a no-op)."""
        aps = self.aps
        best = self._ap_index.nearest(
            position,
            predicate=lambda ap_id: ap_id in aps and aps[ap_id].alive,
        ) or self._ap_index.nearest(
            position, predicate=lambda ap_id: ap_id in aps
        )
        assert best is not None  # a region is never empty
        return best

    def associate(self, client_id: str, position: "Position") -> None:
        """Instant association: home the client on the region's nearest
        live AP, exactly as the over-the-air exchange would leave it."""
        first_ap = self.nearest_ap(position)
        info = StaInfo(
            client=client_id,
            associated_at_us=self._sim.now,
            first_ap=first_ap,
        )
        self.admit(info)
        active = self.active_controller()
        if active is not None and active.alive:
            active.register_association(info)
        # else: controller down mid-arrival — the AP directories
        # admitted above replay the association (serving-claim +
        # sta-sync) when the next incarnation takes over.
        self.aps[first_ap].start_serving(client_id)

    def depart(self, client_id: str) -> bool:
        """Deregister a departing client from the region.  False when
        no live controller was there to take it: the APs were told
        nothing, so the caller has to come back."""
        for ctrl in self.controllers():
            if ctrl.tracks(client_id):
                ctrl.deregister_client(client_id)
            else:
                # Neighbour shards accumulate CSI prewarm state for
                # clients they never owned, a standby the warm-fed
                # association record; free it.
                ctrl.forget(client_id)
        active = self.active_controller()
        return active is not None and active.alive

    def controllers(self) -> List[WgttController]:
        """Primary first, then the standby when HA is on."""
        out: List[WgttController] = [self.controller]
        if self.standby is not None:
            out.append(self.standby)
        return out

    def active_controller(self) -> Optional[WgttController]:
        """The controller owning the region's control plane: with a
        standby, whichever of the pair is active (None mid-gap)."""
        primary, standby = self.controller, self.standby
        if standby is None:
            return primary
        if primary.alive and primary.role == "primary":
            return primary
        if standby.promoted and standby.alive:
            return standby
        return None

    def accept_downlink(self, packet: Packet) -> None:
        """Server ingress for the region: to the active controller, or
        — the detection gap — counted in ``lost_downlink``, never
        silently dropped."""
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

    def collect_metrics(self) -> Dict[str, object]:
        """The region's share of the metrics snapshot: the controller
        keys of whoever owns the control plane (the primary while
        nobody does — after a promotion the standby is doing the work,
        so its numbers are the live ones), plus, with a standby, the
        pair's shipping and ingress counters."""
        out = (self.active_controller() or self.controller).collect_metrics()
        if self.standby is not None:
            out["ha_checkpoints_shipped"] = self.checkpoints_shipped
            out["ha_checkpoint_bytes"] = self.checkpoint_bytes
            out["ha_lost_downlink"] = self.lost_downlink
            out["ha_promotions"] = self.standby.stats["promotions"]
        return out

    # ------------------------------------------------------------------
    # the standby's glue
    # ------------------------------------------------------------------

    def _ship_tick(self) -> None:
        primary, standby = self.controller, self.standby
        if not (standby.alive and standby.role == "standby"):
            # Promoted, or crashed (a restarted standby is inert for
            # good): nothing will restore a checkpoint (reverse shipping
            # to a repaired primary is future work).
            return
        if self.active_controller() is primary:
            data = primary.snapshot().to_bytes()
            self.checkpoints_shipped += 1
            self.checkpoint_bytes += len(data)
            self._backhaul.send(
                primary.controller_id,
                standby.controller_id,
                "ha-checkpoint",
                data,
                size_bytes=len(data),
            )
            tracer = self._sim.obs.trace
            if tracer.active:
                tracer.emit(
                    "ha",
                    "checkpoint-ship",
                    track="ha",
                    detail=True,
                    bytes=len(data),
                )
        self._ship_timer.start(self._checkpoint_interval_us)


class ShardManager:
    """Owns the shards, the client→shard map, and the handoff protocol."""

    def __init__(self, testbed: "Testbed", regions: List[RegionSpec]):
        if not testbed.config.instant_association:
            raise ValueError("sharding requires instant_association")
        self._testbed = testbed
        self._sim = testbed.sim
        self._backhaul = testbed.backhaul
        self.config = testbed.config.shard
        self.shards = [Shard(testbed, region, self) for region in regions]
        #: Boundary k sits midway between region k's last AP and region
        #: k+1's first AP.
        self._boundaries: List[float] = [
            (regions[k].ap_xs[-1] + regions[k + 1].ap_xs[0]) / 2.0
            for k in range(len(regions) - 1)
        ]
        #: client -> owning shard index (flips at handoff initiation).
        self._owner: Dict[str, int] = {}
        #: client -> live ClientNode (position source for placement).
        self._nodes: Dict[str, "ClientNode"] = {}
        #: client -> in-flight transfer awaiting ack (its ``HandoffMsg``).
        self._pending = Retransmitter(
            self._sim,
            lambda _retries: HANDOFF_TIMEOUT_US,
            HANDOFF_RETRY_LIMIT,
            self._send_handoff,
            self._abandon_handoff,
        )
        self._completed: "OrderedDict[int, int]" = OrderedDict()
        self._next_handoff_id = 1
        self.stats = {
            "downlink_unowned": 0,
            "handoff_bytes": 0,
            "handoff_duplicates": 0,
            "handoff_retries": 0,
            "handoffs_abandoned": 0,
            "handoffs_completed": 0,
            "handoffs_initiated": 0,
        }
        self._scan_timer = Timer(self._sim, self._scan_tick)
        self._scan_timer.start(SCAN_INTERVAL_US)

    # ------------------------------------------------------------------
    # ownership
    # ------------------------------------------------------------------

    def _owns(
        self, shard_idx: int, controller: WgttController, client_id: str
    ) -> bool:
        """The per-controller uplink gate.

        Ownership alone is not enough: during a handoff's backhaul
        flight the receiving shard owns the client but has not merged
        its dedup window yet, so accepting uplinks there could deliver
        copies the sending shard already forwarded.  Requiring tracked
        membership closes that window (a brief uplink blackout, like
        the real handoff it models).
        """
        return (
            self._owner.get(client_id) == shard_idx
            and controller.tracks(client_id)
        )

    def owner_of(self, client_id: str) -> Optional[int]:
        return self._owner.get(client_id)

    def handoff_in_flight(self, client_id: str) -> bool:
        return client_id in self._pending

    def shard_for_x(self, x: float) -> int:
        return bisect_right(self._boundaries, x)

    def _target_shard(self, x: float, owner: int) -> int:
        """Boundary crossing with hysteresis (no flapping on a client
        idling exactly on a boundary)."""
        idx = self.shard_for_x(x)
        if idx == owner:
            return owner
        margin = self.config.boundary_hysteresis_m
        if idx > owner:
            return idx if x > self._boundaries[idx - 1] + margin else owner
        return idx if x < self._boundaries[idx] - margin else owner

    # ------------------------------------------------------------------
    # association / departure (testbed entry points)
    # ------------------------------------------------------------------

    def associate_instantly(self, client: "ClientNode") -> None:
        client_id = client.client_id
        position = client.track.position_at(self._sim.now)
        shard_idx = self.shard_for_x(position.x)
        self._owner[client_id] = shard_idx
        self._nodes[client_id] = client
        self._fresh_associate(client_id, shard_idx)

    def depart_client(self, client_id: str) -> bool:
        """Every region forgets the client (the owner deregisters it,
        the rest free what they overheard).  False while any region's
        control plane is down to miss it — calling again is harmless."""
        self._pending.pop(client_id)
        self._owner.pop(client_id, None)
        self._nodes.pop(client_id, None)
        heard = [shard.depart(client_id) for shard in self.shards]
        return all(heard)

    def _fresh_associate(self, client_id: str, shard_idx: int) -> None:
        """Associate a client with a shard from scratch (t=0 arrival,
        churn arrival, or an abandoned handoff's self-heal path)."""
        shard = self.shards[shard_idx]
        ctrl = shard.active_controller()
        node = self._nodes.get(client_id)
        if ctrl is None or node is None:
            return  # control plane down; the scan loop retries
        if ctrl.tracks(client_id):
            return
        shard.associate(client_id, node.track.position_at(self._sim.now))

    # ------------------------------------------------------------------
    # boundary scan + handoff initiation (sending side)
    # ------------------------------------------------------------------

    def _scan_tick(self) -> None:
        now = self._sim.now
        for client_id in sorted(self._owner):
            if client_id in self._pending:
                continue
            node = self._nodes.get(client_id)
            if node is None:
                continue
            owner = self._owner[client_id]
            ctrl = self.shards[owner].active_controller()
            if ctrl is not None and not ctrl.tracks(client_id):
                # Unfinished business (abandoned handoff with the
                # control plane down, say): re-associate from scratch.
                self._fresh_associate(client_id, owner)
                continue
            if ctrl is not None and ctrl.coordinator.busy(client_id):
                # Mid-switch-handshake: stop/start messages for this
                # client are in flight among the shard's APs.  Migrate
                # at a quiescent instant instead (next tick is 20 ms
                # away; handshakes finish in single-digit ms) so the
                # teardown broadcast cannot race a live handshake.
                continue
            target = self._target_shard(node.track.position_at(now).x, owner)
            if target != owner:
                self._initiate_handoff(client_id, owner, target)
        self._scan_timer.start(SCAN_INTERVAL_US)

    def _initiate_handoff(
        self, client_id: str, from_idx: int, to_idx: int
    ) -> None:
        ctrl_from = self.shards[from_idx].active_controller()
        ctrl_to = self.shards[to_idx].active_controller()
        if ctrl_from is None or ctrl_to is None:
            return  # either control plane down; retry next scan
        if not ctrl_from.tracks(client_id):
            return
        data = canonical_json(ctrl_from.client_slice(client_id))
        # Deregistration aborts any in-flight switch and tells the old
        # shard's APs to drop the client — state was captured first.
        ctrl_from.deregister_client(client_id)
        self._owner[client_id] = to_idx
        handoff_id = self._next_handoff_id
        self._next_handoff_id += 1
        msg = HandoffMsg(client_id, handoff_id, from_idx, to_idx, data)
        self.stats["handoffs_initiated"] += 1
        tracer = self._sim.obs.trace
        tracer.emit(
            "shard",
            "shard-handoff-out",
            track="shard",
            client=client_id,
            handoff_id=handoff_id,
            from_shard=from_idx,
            to_shard=to_idx,
            bytes=len(data),
        )
        # Armed even when a controller is down: the timeout retries
        # against whichever controller is active by then.
        self._pending.start(client_id, msg)

    def _send_handoff(self, msg: HandoffMsg, retries: int) -> None:
        """Ship ``msg`` between the two regions' active controllers;
        ``retries`` > 0 is a retransmission."""
        if retries:
            self.stats["handoff_retries"] += 1
            tracer = self._sim.obs.trace
            tracer.emit(
                "shard",
                "shard-handoff-retry",
                track="shard",
                client=msg.client,
                handoff_id=msg.handoff_id,
                retries=retries,
            )
        src = self.shards[msg.from_shard].active_controller()
        dst = self.shards[msg.to_shard].active_controller()
        if src is not None and dst is not None:
            self._backhaul.send(
                src.controller_id,
                dst.controller_id,
                HANDOFF_KIND,
                msg,
                size_bytes=msg.wire_size_bytes,
            )
            self.stats["handoff_bytes"] += msg.wire_size_bytes

    def _abandon_handoff(self, msg: HandoffMsg, retries: int) -> None:
        self.stats["handoffs_abandoned"] += 1
        tracer = self._sim.obs.trace
        tracer.emit(
            "shard",
            "shard-handoff-abandon",
            track="shard",
            client=msg.client,
            handoff_id=msg.handoff_id,
            to_shard=msg.to_shard,
        )
        # Self-heal: give up on the transferred history and start
        # the client fresh on the shard that now owns it.
        self._fresh_associate(msg.client, msg.to_shard)

    # ------------------------------------------------------------------
    # receiving side (the two kinds added to controller.handlers)
    # ------------------------------------------------------------------

    def _record_completed(self, handoff_id: int, shard_idx: int) -> None:
        self._completed[handoff_id] = shard_idx
        if len(self._completed) > COMPLETED_HANDOFF_CAP:
            self._completed.popitem(last=False)

    def _send_ack(
        self, controller: WgttController, dst: str, msg: HandoffMsg
    ) -> None:
        self._backhaul.send_control(
            controller.controller_id,
            dst,
            HANDOFF_ACK_KIND,
            HandoffAck(
                client=msg.client,
                handoff_id=msg.handoff_id,
                to_shard=msg.to_shard,
            ),
            size_bytes=HANDOFF_ACK_WIRE_BYTES,
        )

    def _handle_handoff(
        self,
        shard_idx: int,
        controller: WgttController,
        src: str,
        msg: HandoffMsg,
    ) -> None:
        shard = self.shards[shard_idx]
        if msg.handoff_id in self._completed:
            # Retransmission of a transfer already merged: the ack was
            # lost, not the handoff.  Never merge twice.
            self.stats["handoff_duplicates"] += 1
            self._send_ack(controller, src, msg)
            return
        client_id = msg.client
        node = self._nodes.get(client_id)
        if node is None:
            # Departed while the transfer was in flight; ack so the
            # sender stops retrying, merge nothing.
            self._record_completed(msg.handoff_id, shard_idx)
            self._send_ack(controller, src, msg)
            return
        target = shard.nearest_ap(node.track.position_at(self._sim.now))
        if not shard.aps[target].alive:
            return  # nothing live to serve from; let the sender retry
        client_slice = json.loads(msg.state.decode("utf-8"))
        info = StaInfo(
            client=client_id,
            associated_at_us=self._sim.now,
            first_ap=target,
        )
        # Merge first: the transferred sta record (the original
        # association time) wins over ``info`` where both would land.
        merged = controller.merge_client(client_slice, serving_ap=target)
        shard.admit(info)
        if merged:
            shard.aps[target].start_serving(client_id)
            self.stats["handoffs_completed"] += 1
            tracer = self._sim.obs.trace
            tracer.emit(
                "shard",
                "shard-handoff-in",
                track="shard",
                client=client_id,
                handoff_id=msg.handoff_id,
                from_shard=msg.from_shard,
                to_shard=shard_idx,
                serving=target,
            )
        self._owner[client_id] = shard_idx
        self._record_completed(msg.handoff_id, shard_idx)
        self._send_ack(controller, src, msg)

    def _handle_ack(self, ack: HandoffAck) -> None:
        pending = self._pending.get(ack.client)
        if pending is None or pending.handoff_id != ack.handoff_id:
            return
        self._pending.pop(ack.client)
        tracer = self._sim.obs.trace
        tracer.emit(
            "shard",
            "shard-handoff-ack",
            track="shard",
            client=ack.client,
            handoff_id=ack.handoff_id,
            to_shard=ack.to_shard,
        )

    # ------------------------------------------------------------------
    # routing (testbed entry points)
    # ------------------------------------------------------------------

    def accept_downlink(self, packet: Packet) -> None:
        shard_idx = self._owner.get(packet.dst)
        if shard_idx is None:
            self.stats["downlink_unowned"] += 1
            return
        self.shards[shard_idx].accept_downlink(packet)

    def serving_ap(self, client_id: str) -> Optional[str]:
        """The owner region's serving AP for ``client_id``
        (``Testbed.serving_ap_of`` on a corridor)."""
        shard_idx = self._owner.get(client_id)
        if shard_idx is None:
            return None
        ctrl = self.shards[shard_idx].active_controller()
        return ctrl.serving_ap(client_id) if ctrl is not None else None

    # ------------------------------------------------------------------
    # observability
    # ------------------------------------------------------------------

    def collect_metrics(self) -> Dict[str, object]:
        out: Dict[str, object] = {
            "shard_count": len(self.shards),
            "shard_handoffs_pending": len(self._pending),
        }
        for name in sorted(self.stats):
            out[f"shard_{name}"] = self.stats[name]
        out["shard_downlink_lost"] = sum(s.lost_downlink for s in self.shards)
        index = self._testbed.ap_index
        out["ap_index_queries"] = index.queries
        out["ap_index_scanned"] = index.scanned
        for k, shard in enumerate(self.shards):
            ctrl = shard.active_controller() or shard.controller
            out[metric_key("shard_clients", shard=k)] = len(
                ctrl.tracked_clients()
            )
            out[metric_key("shard_switches", shard=k)] = len(
                ctrl.coordinator.history
            )
            out[metric_key("shard_uplink_unowned", shard=k)] = ctrl.stats[
                "uplink_unowned"
            ]
            out[metric_key("shard_dedup_window", shard=k)] = (
                ctrl.dedup.window_size()
            )
        return out
