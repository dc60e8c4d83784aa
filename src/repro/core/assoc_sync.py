"""Client-association synchronization (paper §4.3, Figure 12).

All WGTT APs present one BSSID, so the client associates once. The AP
that completes the association replicates the client's ``sta_info``
(addresses, authorization state) to every other AP over the backhaul —
the paper patches hostapd to do this with a TCP connection per peer.
Here the directory is the per-AP view of which clients are admitted;
replication is a broadcast backhaul message.
"""

from __future__ import annotations

from collections import OrderedDict
from dataclasses import dataclass
from typing import Any, Dict, List, Set

#: Wire size of one replicated sta_info record.
STA_SYNC_WIRE_BYTES = 256


@dataclass
class StaInfo:
    """Replicated association state for one client."""

    client: str
    associated_at_us: int
    first_ap: str
    authorized: bool = True


class AssociationDirectory:
    """One AP's (or the controller's) view of admitted clients."""

    def __init__(self):
        self._records: Dict[str, StaInfo] = {}

    def is_associated(self, client_id: str) -> bool:
        record = self._records.get(client_id)
        return record is not None and record.authorized

    def admit(self, info: StaInfo) -> bool:
        """Install a record; returns False if already present."""
        if info.client in self._records:
            return False
        self._records[info.client] = info
        return True

    def get(self, client_id: str) -> StaInfo:
        return self._records[client_id]

    def remove(self, client_id: str) -> None:
        self._records.pop(client_id, None)

    def clients(self) -> Set[str]:
        return set(self._records)


class DepartedMemory(OrderedDict[str, int]):
    """Recently departed clients -> departure time, oldest first, bounded.

    "client-departed" rides the prioritized control path and can
    overtake messages already queued for the client; whoever tears a
    client down remembers it here so those stragglers are dropped
    instead of recreating its state.  The time tells a replayed
    pre-departure sta-sync from a genuine re-admission.  (A dict
    subclass so the per-fan-out ``in`` stays a C-level lookup.)
    """

    def __init__(self, cap: int = 4096):
        super().__init__()
        self.cap = cap

    def depart(self, client_id: str, now_us: int) -> None:
        """Remember a departure (a re-departure keeps its FIFO place)."""
        self[client_id] = now_us
        if len(self) > self.cap:
            self.popitem(last=False)

    def is_replay(self, info: StaInfo) -> bool:
        """True for a sta-sync from *before* the client's departure:
        admitting it would resurrect torn-down state with no radio
        behind it.  A newer one is a genuine re-admission (a returning
        rider gets a fresh session) and lifts the guard."""
        departed_at = self.get(info.client)
        if departed_at is None:
            return False
        if info.associated_at_us <= departed_at:
            return True
        del self[info.client]
        return False

    # -- checkpoint support -------------------------------------------

    def snapshot(self) -> List[List[Any]]:
        """List-of-pairs, not a dict: eviction order is insertion order
        and a JSON object would lose it under sorted-keys rendering."""
        return [[client_id, int(t)] for client_id, t in self.items()]

    def restore(self, pairs: List[List[Any]]) -> None:
        self.clear()
        self.update((client_id, int(t)) for client_id, t in pairs)
