"""The controller checkpoint envelope and its canonical wire form.

What a checkpoint holds is the controller's business
(:meth:`WgttController.snapshot` / :meth:`~WgttController.restore`):
one per-client record for every client any per-client store holds,
plus the controller-wide stores (switch coordinator, liveness table,
dedup window, AP sets, pending claims, departed clients).  An
inter-shard handoff slice (:meth:`~WgttController.client_slice` /
:meth:`~WgttController.merge_client`) is one client's record with its
dedup keys and in-flight switch, in an envelope.  This module only
versions the two layouts and renders them canonically: sorted keys,
no whitespace, so equal states have equal bytes and a content digest
identifies one uniquely.  Payload sizes set backhaul serialization
delay, so these bytes are part of the protocol.

Two consumers of a whole checkpoint:

* the **warm standby** keeps the latest checkpoint and restores it at
  promotion time;
* a **restarted controller** can restore its own pre-crash checkpoint
  and continue; the bit-identical-continuation property test holds
  restore to producing the same subsequent event trace the uncrashed
  controller would have produced.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass, field
from typing import Any, Dict

#: Bump when the checkpoint layout changes; restore refuses mismatches.
#: v2: added "departed_at" (the departed-client replay guard — without
#: it a promoted standby would re-admit replayed sta-syncs for clients
#: that left before the failover; found by the CKP001 check,
#: tests/lint.py).
#: v3: a client's state lost "last_selection_check_us",
#: "degraded_since", "failover_retry_pending" and "paced", which
#: nothing read ("retry_deadlines" re-arms the failover retry).
#: v4: one record per client, the handoff slice's layout, replaces the
#: per-store columns "selection_deadlines", "retry_deadlines",
#: "selector", "directory", "index_cursors" and "last_heard".
#: v5: a client record lost "retry_deadline_us": the selection tick
#: retries a failover.
CHECKPOINT_VERSION = 5

#: Layout version of the *per-client* state slice that rides an
#: inter-shard handoff message; merge refuses mismatches.
#: v2: the same four client-state fields as checkpoint v3 went.
#: v3: "retry_deadline_us" went, as in checkpoint v5.
CLIENT_STATE_VERSION = 3


def canonical_json(value: Any) -> bytes:
    """Canonical JSON: sorted keys, minimal separators, UTF-8."""
    return json.dumps(value, sort_keys=True, separators=(",", ":")).encode(
        "utf-8"
    )


@dataclass
class ControllerCheckpoint:
    """One serialized controller state, with provenance."""

    version: int
    taken_at_us: int
    controller_id: str
    state: Dict = field(default_factory=dict)

    def to_bytes(self) -> bytes:
        """Canonical form makes equality structural (equal checkpoints
        ⇒ equal bytes ⇒ equal digest) and round-trip lossless:
        ``from_bytes(cp.to_bytes()) == cp`` exactly."""
        return canonical_json(
            {
                "version": self.version,
                "taken_at_us": self.taken_at_us,
                "controller_id": self.controller_id,
                "state": self.state,
            }
        )

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
