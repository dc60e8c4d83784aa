"""Inter-shard handoff wire protocol.

When a client crosses a shard boundary, the sending shard's controller
serializes the client's slice of controller state (selection windows,
serving entry, index cursor, dedup keys — see
:meth:`repro.core.controller.WgttController.client_slice`) and ships
it to the receiving shard's controller as a ``"shard-handoff"``
backhaul data message; the receiver replies with
``"shard-handoff-ack"`` on the control path.

Neither kind is in :data:`repro.net.backhaul.RELIABLE_KINDS`: handoff
messages are deliberately subject to loss and the message-level
adversary, exactly like the switch handshake they resemble.  The shard
manager retransmits un-acked handoffs (same ``handoff_id``, so
duplicate arrivals are idempotent) and, past the retry limit, abandons
the transfer and re-associates the client freshly on the receiving
shard — self-healing at the cost of the transferred history.
"""

from __future__ import annotations

from dataclasses import dataclass

#: Backhaul message kinds (deliberately absent from RELIABLE_KINDS).
HANDOFF_KIND = "shard-handoff"
HANDOFF_ACK_KIND = "shard-handoff-ack"

#: Header overhead on top of the serialized client state.
HANDOFF_BASE_WIRE_BYTES = 64
HANDOFF_ACK_WIRE_BYTES = 64


@dataclass(frozen=True)
class HandoffMsg:
    """One client-state transfer attempt (retransmissions reuse the
    same ``handoff_id``, making duplicate delivery idempotent)."""

    client: str
    handoff_id: int
    from_shard: int
    to_shard: int
    #: Canonical bytes (:func:`repro.ha.checkpoint.canonical_json`).
    state: bytes

    @property
    def wire_size_bytes(self) -> int:
        return HANDOFF_BASE_WIRE_BYTES + len(self.state)


@dataclass(frozen=True)
class HandoffAck:
    """Receiving shard's acknowledgement (also re-sent on duplicates)."""

    client: str
    handoff_id: int
    to_shard: int
