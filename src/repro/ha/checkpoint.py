"""Deterministic, versioned controller checkpoints.

A checkpoint captures **all** of the controller's volatile protocol
state — the selection windows, the per-client serving map, the 12-bit
index cursors, every in-flight switch handshake (with its absolute
retransmission deadline), the dedup key window, and the AP liveness
table — as a plain JSON-able dict.  ``to_bytes`` renders it in
canonical form (sorted keys, no whitespace), so equal checkpoints have
equal bytes and a content digest identifies one uniquely.

Two consumers:

* the **warm standby** keeps the latest checkpoint and restores it at
  promotion time;
* a **restarted controller** can restore its own pre-crash checkpoint
  and continue; the bit-identical-continuation property test holds
  restore to producing the same subsequent event trace the uncrashed
  controller would have produced.

Restore is *state-only*: it sends no messages.  Timers are re-armed at
their checkpointed absolute deadlines (clamped to now), in a fixed
order — selection loops sorted by client, then the liveness check,
then pending switch retransmissions, then failover retries — so two
restores of the same checkpoint schedule identically.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass, field
from typing import Dict

from repro.core.assoc_sync import AssociationDirectory, StaInfo
from repro.net.packet import src_bits

#: Bump when the checkpoint layout changes; restore refuses mismatches.
#: v2: added "departed_at" (the departed-client replay guard — without
#: it a promoted standby would re-admit replayed sta-syncs for clients
#: that left before the failover; found by repro.analysis CKP001).
CHECKPOINT_VERSION = 2

#: Layout version of the *per-client* state slice that rides an
#: inter-shard handoff message; merge refuses mismatches.
CLIENT_STATE_VERSION = 1


@dataclass
class ControllerCheckpoint:
    """One serialized controller state, with provenance."""

    version: int
    taken_at_us: int
    controller_id: str
    state: Dict = field(default_factory=dict)

    def to_bytes(self) -> bytes:
        """Canonical JSON: sorted keys, minimal separators.

        Canonical form makes equality structural (equal checkpoints ⇒
        equal bytes ⇒ equal digest) and round-trip lossless:
        ``from_bytes(cp.to_bytes()) == cp`` exactly.
        """
        return json.dumps(
            {
                "version": self.version,
                "taken_at_us": self.taken_at_us,
                "controller_id": self.controller_id,
                "state": self.state,
            },
            sort_keys=True,
            separators=(",", ":"),
        ).encode("utf-8")

    @classmethod
    def from_bytes(cls, data: bytes) -> "ControllerCheckpoint":
        decoded = json.loads(data.decode("utf-8"))
        return cls(
            version=int(decoded["version"]),
            taken_at_us=int(decoded["taken_at_us"]),
            controller_id=decoded["controller_id"],
            state=decoded["state"],
        )

    def digest(self) -> str:
        """Content digest of the canonical bytes."""
        return hashlib.sha256(self.to_bytes()).hexdigest()

    @property
    def wire_size_bytes(self) -> int:
        return len(self.to_bytes())


def _sta_to_state(info: StaInfo) -> dict:
    return {
        "client": info.client,
        "associated_at_us": info.associated_at_us,
        "first_ap": info.first_ap,
        "authorized": info.authorized,
    }


def _sta_from_state(state: dict) -> StaInfo:
    return StaInfo(
        client=state["client"],
        associated_at_us=int(state["associated_at_us"]),
        first_ap=state["first_ap"],
        authorized=bool(state["authorized"]),
    )


def checkpoint_controller(controller) -> ControllerCheckpoint:
    """Snapshot a live controller into a checkpoint (read-only).

    Everything is copied into JSON-native shapes (lists, not tuples),
    so the in-memory checkpoint equals its own serialize/parse round
    trip element for element.
    """
    selector_state = {
        client_id: {
            ap_id: [[int(t), float(v)] for t, v in entries]
            for ap_id, entries in per_client.items()
        }
        for client_id, per_client in controller.selector.snapshot().items()
    }
    last_heard = {
        client_id: {
            ap_id: [int(t), float(v)]
            for ap_id, (t, v) in heard.items()
        }
        for client_id, heard in controller._last_heard.items()
    }
    state = {
        "clients": {
            client_id: client.to_state()
            for client_id, client in controller._clients.items()
        },
        "selection_deadlines": {
            client_id: timer.deadline_us
            for client_id, timer in controller._selection_timers.items()
        },
        "retry_deadlines": {
            client_id: timer.deadline_us
            for client_id, timer in controller._retry_timers.items()
        },
        "selector": selector_state,
        "coordinator": controller.coordinator.snapshot(),
        "liveness": controller.liveness.snapshot(),
        "dedup": controller.dedup.snapshot(),
        "directory": {
            client_id: _sta_to_state(controller.directory.get(client_id))
            for client_id in sorted(controller.directory.clients())
        },
        "index_cursors": controller._index_alloc.snapshot(),
        "ap_ids": sorted(controller._ap_ids),
        "dead_aps": sorted(controller._dead_aps),
        "last_heard": last_heard,
        "pending_claims": dict(controller._pending_claims),
        "departed_at": controller._departed_at.snapshot(),
    }
    return ControllerCheckpoint(
        version=CHECKPOINT_VERSION,
        taken_at_us=controller._sim.now,
        controller_id=controller.controller_id,
        state=state,
    )


def restore_controller(controller, checkpoint: ControllerCheckpoint) -> None:
    """Load a checkpoint into ``controller``, replacing its state.

    State-only — no backhaul messages.  Timer re-arming order is fixed
    (selection by client, liveness check, coordinator pending, retries
    by client) so same-microsecond event ties resolve identically on
    every restore of the same checkpoint.
    """
    if checkpoint.version != CHECKPOINT_VERSION:
        raise ValueError(
            f"checkpoint version {checkpoint.version} != "
            f"supported {CHECKPOINT_VERSION}"
        )
    state = checkpoint.state

    # Quiesce whatever the target controller was doing.  Sorted keys:
    # Timer.stop() is order-independent today, but restore is on the
    # bit-identical-continuation path and must not let dict insertion
    # history leak into event order (repro.analysis DET005).
    for client_id in sorted(controller._selection_timers):
        controller._selection_timers[client_id].stop()
    controller._selection_timers.clear()
    for client_id in sorted(controller._retry_timers):
        controller._retry_timers[client_id].stop()
    controller._retry_timers.clear()

    # Plain stores first.
    controller._ap_ids = set(state["ap_ids"])
    controller._dead_aps = set(state["dead_aps"])
    controller.selector.restore(state["selector"])
    controller.dedup.restore(state["dedup"])
    controller._index_alloc.restore(state["index_cursors"])
    directory = AssociationDirectory()
    for client_id in sorted(state["directory"]):
        directory.admit(_sta_from_state(state["directory"][client_id]))
    controller.directory = directory
    from repro.core.controller import ClientState  # cycle-free at runtime

    controller._clients = {
        client_id: ClientState.from_state(client_state)
        for client_id, client_state in state["clients"].items()
    }
    controller._last_heard = {
        client_id: {
            ap_id: (int(t), float(v))
            for ap_id, (t, v) in heard.items()
        }
        for client_id, heard in state["last_heard"].items()
    }
    controller._pending_claims = dict(state["pending_claims"])
    controller._departed_at.restore(state["departed_at"])

    # Timers, in the canonical order.
    for client_id in sorted(state["selection_deadlines"]):
        deadline = state["selection_deadlines"][client_id]
        if client_id in controller._clients and deadline is not None:
            controller._start_selection_loop(
                client_id, first_deadline_us=int(deadline)
            )
    controller.liveness.restore(state["liveness"])
    controller.coordinator.restore(state["coordinator"])
    for client_id in sorted(state["retry_deadlines"]):
        deadline = state["retry_deadlines"][client_id]
        if client_id in controller._clients and deadline is not None:
            controller._schedule_failover_retry(
                client_id, deadline_us=int(deadline)
            )


# -- per-client state transfer (inter-shard handoff) ------------------
#
# A whole-controller checkpoint moves one controller's state to its own
# warm standby.  An inter-shard handoff moves exactly *one client's*
# slice of that state to a different controller: the selection windows
# accumulated for the client, its serving-map entry, its index cursor,
# its slice of the dedup window, and the last-heard table — everything
# the receiving shard needs to continue the client's session without a
# fresh association or a duplicate upstream delivery.


def extract_client_state(controller, client_id: str) -> dict:
    """One client's controller-side state, in JSON-native shapes.

    Read-only, and must run *before* ``deregister_client`` on the
    sending side: deregistration aborts any in-flight switch and drops
    the very state being captured.  The in-flight switch record (if
    any) is carried for audit — the receiving shard does not resume it,
    because the handshake's target APs belong to the sending shard.
    """
    client = controller._clients[client_id]
    sta = None
    if controller.directory.is_associated(client_id):
        sta = _sta_to_state(controller.directory.get(client_id))
    selection_timer = controller._selection_timers.get(client_id)
    retry_timer = controller._retry_timers.get(client_id)
    heard = controller._last_heard.get(client_id, {})
    return {
        "version": CLIENT_STATE_VERSION,
        "client": client_id,
        "extracted_at_us": controller._sim.now,
        "from_controller": controller.controller_id,
        "state": client.to_state(),
        "sta": sta,
        "selector": {
            ap_id: [[int(t), float(v)] for t, v in entries]
            for ap_id, entries in controller.selector.client_snapshot(
                client_id
            ).items()
        },
        "dedup_keys": controller.dedup.keys_for_src(src_bits(client_id)),
        "index_cursor": controller._index_alloc.peek(client_id),
        "last_heard": {
            ap_id: [int(t), float(v)] for ap_id, (t, v) in heard.items()
        },
        "selection_deadline_us": (
            selection_timer.deadline_us
            if selection_timer is not None and selection_timer.armed
            else None
        ),
        "retry_deadline_us": (
            retry_timer.deadline_us
            if retry_timer is not None and retry_timer.armed
            else None
        ),
        "pending_switch": controller.coordinator.snapshot()["pending"].get(
            client_id
        ),
    }


def client_state_to_bytes(state: dict) -> bytes:
    """Canonical JSON bytes of a per-client slice (wire payload)."""
    return json.dumps(
        state, sort_keys=True, separators=(",", ":")
    ).encode("utf-8")


def client_state_from_bytes(data: bytes) -> dict:
    return json.loads(data.decode("utf-8"))


def merge_client_state(controller, state: dict, serving_ap=None) -> bool:
    """Graft a transferred client slice into ``controller``.

    Returns False (a no-op) if the controller already tracks the
    client — handoff retransmissions make duplicate arrivals routine,
    and merging twice would double state.  ``serving_ap`` overrides the
    transferred serving AP with one the receiving shard actually owns.

    State the receiving controller accumulated on its own — CSI windows
    and last-heard entries its APs overheard while the client
    approached the boundary — wins over the transferred copies (see
    :meth:`ApSelector.restore_client`).  The transferred retry deadline
    and pending switch are *not* re-armed: both reference the sending
    shard's APs.
    """
    if state["version"] != CLIENT_STATE_VERSION:
        raise ValueError(
            f"client state version {state['version']} != "
            f"supported {CLIENT_STATE_VERSION}"
        )
    client_id = state["client"]
    if client_id in controller._clients:
        return False
    from repro.core.controller import ClientState  # cycle-free at runtime

    client = ClientState.from_state(state["state"])
    if serving_ap is not None:
        client.serving_ap = serving_ap
    if state["sta"] is not None:
        controller.directory.admit(_sta_from_state(state["sta"]))
    controller.selector.restore_client(
        client_id,
        {
            ap_id: [(int(t), float(v)) for t, v in entries]
            for ap_id, entries in state["selector"].items()
        },
    )
    controller.dedup.merge_keys(state["dedup_keys"])
    controller._index_alloc.set_cursor(client_id, int(state["index_cursor"]))
    heard = controller._last_heard.setdefault(client_id, {})
    for ap_id in sorted(state["last_heard"]):
        t, v = state["last_heard"][ap_id]
        heard.setdefault(ap_id, (int(t), float(v)))
    if not heard:
        del controller._last_heard[client_id]
    # A client handed back after departing elsewhere is live again.
    controller._departed_at.pop(client_id, None)
    controller._clients[client_id] = client
    controller._publish_serving(client_id, client.serving_ap)
    deadline = state["selection_deadline_us"]
    if deadline is not None:
        controller._start_selection_loop(
            client_id, first_deadline_us=int(deadline)
        )
    else:
        controller._start_selection_loop(client_id)
    return True
