"""The warm-standby controller.

A second controller process sits on the backhaul, **inert**: before
promotion it ignores the data plane entirely and consumes only its warm
feed —

* ``ha-checkpoint`` — the primary's periodic state snapshot (canonical
  bytes; the standby keeps the latest);
* ``ctrl-heartbeat`` — the primary's liveness signal, watched by a
  :class:`~repro.core.liveness.LivenessTracker` whose ``on_down`` promotes;
* ``sta-sync`` broadcasts, mirrored ``serving-update``s and mirrored
  ``dedup-key``s — the between-checkpoints event feed, so promotion
  state is never staler than one backhaul latency for the serving map
  and the uplink de-duplication window.

When the primary goes silent past the miss limit, the standby
**promotes** itself:

1. restore the latest checkpoint (state-only);
2. overlay warm-feed serving updates received after the checkpoint,
   keep the warm-fed dedup keys, and track the warm-fed associations
   it lacks;
3. take the region over exactly as a cold-restarted controller does
   (:meth:`~repro.core.controller.WgttController._take_over`).

From then on it *is* the controller — the full inherited WgttController
machinery runs.  A restarted primary, or a standby restarted before
promotion, comes back inert instead
(:meth:`~repro.core.controller.WgttController.restart`).
"""

from __future__ import annotations

from typing import Any, Callable, Dict, Optional, Tuple

from repro.core.config import WgttConfig
from repro.core.controller import (
    CONTROLLER_HEARTBEAT_INTERVAL_US,
    ClientState,
    WgttController,
)
from repro.core.liveness import LivenessTracker
from repro.ha.checkpoint import ControllerCheckpoint
from repro.net.backhaul import EthernetBackhaul
from repro.sim.engine import Simulator
from repro.sim.rng import RngRegistry

#: Cyclic-queue indices the promoted standby skips ahead on every
#: restored cursor.  The checkpoint it restores from is up to
#: ``checkpoint_interval_us`` stale, so the dead primary may have
#: allocated indices past the checkpointed cursor; re-using them
#: would overwrite undelivered slots at the APs (counted in
#: ``overflow_drops``).  Skipping is free — cyclic-queue readers
#: skip gaps by design — and the ``edge-report`` resync the APs
#: send on re-home trues the cursor up exactly afterwards.
HA_INDEX_SKID = 256


class StandbyController(WgttController):
    """A WgttController that boots inert and activates on promotion."""

    #: Duplicated/replayed warm-feed mirrors: adversary-only, lazy.
    LAZY_STATS = (*WgttController.LAZY_STATS, "stale_warm_updates")

    def __init__(
        self,
        sim: Simulator,
        backhaul: EthernetBackhaul,
        rng: RngRegistry,
        config: Optional[WgttConfig] = None,
        controller_id: str = "controller-b",
        primary_id: str = "controller",
    ):
        super().__init__(sim, backhaul, rng, config, controller_id)
        self.role = "standby"
        self.primary_id = primary_id
        self.promoted = False
        self.last_checkpoint: Optional[ControllerCheckpoint] = None
        #: client -> (received_at_us, ap): mirrored serving updates.
        self._warm_serving: Dict[str, Tuple[int, str]] = {}
        #: client -> highest serving generation seen in the warm feed;
        #: duplicated/replayed mirrors lose to it (same monotonic-
        #: generation rule the APs apply).
        self._warm_serving_gen: Dict[str, Tuple[int, int]] = {}
        #: Silence from the primary past the miss limit promotes; the
        #: watch stops at promotion and is never re-armed.
        self._primary_watch = LivenessTracker(
            sim, CONTROLLER_HEARTBEAT_INTERVAL_US
        )
        self._primary_watch.on_down = lambda primary_id: self.promote()
        self.stats["checkpoints_received"] = 0
        self.stats["promotions"] = 0
        # The primary's checkpoints and heartbeats are consumed in
        # either role; the rest of the warm feed only while inert.
        either_role: Dict[str, Callable[[str, Any], None]] = {
            "ha-checkpoint": self._checkpoint_received,
            "ctrl-heartbeat": (
                lambda src, payload: self._primary_watch.beat(self.primary_id)
            ),
        }
        self.handlers.update(either_role)
        #: The dispatch table before promotion (``handlers`` after).
        self.warm_handlers: Dict[str, Callable[[str, Any], None]] = {
            **either_role,
            "sta-sync": lambda src, info: self.directory.admit(info),
            "serving-update": self._warm_serving_update,
            "dedup-key": lambda src, key: self.dedup.merge_keys([key]),
        }

    # ------------------------------------------------------------------
    # warm feed (pre-promotion) vs full dispatch (post-promotion)
    # ------------------------------------------------------------------

    def _on_backhaul(self, src: str, kind: str, payload: object) -> None:
        if self.promoted:
            super()._on_backhaul(src, kind, payload)
        elif self.alive and self.role == "standby" and kind in self.warm_handlers:
            # Before promotion only the passive warm feed is consumed.
            self.warm_handlers[kind](src, payload)

    def _warm_serving_update(self, src: str, payload: tuple) -> None:
        client_id, ap_id, gen = payload
        last = self._warm_serving_gen.get(client_id)
        if last is not None and gen <= last:
            # Duplicate or replayed mirror: the feed already holds
            # a same-or-newer generation for this client.
            self.stats["stale_warm_updates"] += 1
            return
        self._warm_serving_gen[client_id] = gen
        self._warm_serving[client_id] = (self._sim.now, ap_id)

    def _checkpoint_received(self, src: str, payload: object) -> None:
        data = payload if isinstance(payload, bytes) else bytes(payload)
        self.last_checkpoint = ControllerCheckpoint.from_bytes(data)
        self.stats["checkpoints_received"] += 1

    # ------------------------------------------------------------------
    # promotion
    # ------------------------------------------------------------------

    def promote(self) -> None:
        """Become the controller (idempotent; never from inert)."""
        if self.role != "standby" or not self.alive:
            return
        self.promoted = True
        self.role = "active"
        self.stats["promotions"] += 1
        self._primary_watch.stop()
        tracer = self._sim.obs.trace
        span = tracer.begin(
            "ha", "promotion", track="ha", node=self.controller_id
        )

        checkpoint = self.last_checkpoint
        restore_span = tracer.begin(
            "ha",
            "checkpoint-restore",
            track="ha",
            from_checkpoint=checkpoint is not None,
        )
        # The warm feed's association records and dedup keys: restore
        # replaces them.
        warm_directory = self.directory
        if checkpoint is not None:
            warm_keys = self.dedup.snapshot()["keys"]
            self.restore(checkpoint)
            # Uplinks the primary delivered after the checkpoint was
            # cut: their late copies must still count as duplicates.
            self.dedup.merge_keys(warm_keys)
            # The checkpoint is up to one shipping interval stale: the
            # dead primary kept allocating cyclic indices past the
            # checkpointed cursors.  Skid every cursor forward so none
            # is re-used (readers skip the gap); the APs' edge-reports
            # true the cursors up exactly as they re-home.
            self._index_alloc.skid(HA_INDEX_SKID)
            # Overlay serving updates mirrored after the checkpoint was
            # cut.
            for client_id in sorted(self._warm_serving):
                received_at, ap_id = self._warm_serving[client_id]
                if received_at <= checkpoint.taken_at_us:
                    continue
                state = self._clients.get(client_id)
                if (
                    state is not None
                    and ap_id in self._ap_ids
                    and state.serving_ap != ap_id
                ):
                    state.serving_ap = ap_id
        # Track what the warm feed admitted and the checkpoint lacks
        # (every record without a checkpoint, else the clients that
        # associated after it was cut), state-only like the restore, on
        # the AP mirrored as serving it, not its first AP.  Records of
        # clients the checkpoint saw depart stay out.
        now = self._sim.now
        for client_id in sorted(warm_directory.clients()):
            info = warm_directory.get(client_id)
            if client_id in self._clients or self._departed_at.is_replay(info):
                continue
            warm = self._warm_serving.get(client_id)
            serving = info.first_ap if warm is None else warm[1]
            self.directory.admit(info)
            client = self._clients[client_id] = ClientState(
                client_id, self._pending_claims.pop(client_id, serving), now
            )
            self._start_selection_loop(client)
        self._warm_serving.clear()
        self._warm_serving_gen.clear()
        tracer.end(restore_span, clients=len(self._clients))
        self._take_over()
        tracer.end(span, clients=len(self._clients))
