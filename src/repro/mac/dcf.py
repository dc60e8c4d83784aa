"""Distributed Coordination Function: CSMA/CA channel access.

A simplified but faithful DCF: one outstanding access request per
station, DIFS sensing, slotted binary-exponential backoff that freezes
while the medium is busy, and contention-window doubling driven by the
station's transmit feedback. Stations that pick the same slot (or fire
inside each other's sense blind spot) collide on the medium.
"""

from __future__ import annotations

from typing import Callable, Optional

import numpy as np

from repro.mac.frames import CW_MAX, CW_MIN, DIFS_US, SLOT_US
from repro.mac.medium import WirelessMedium
from repro.sim.engine import EventHandle, Simulator


class Dcf:
    """Channel-access state machine for one station."""

    def __init__(
        self,
        sim: Simulator,
        medium: WirelessMedium,
        node_id: str,
        rng: np.random.Generator,
    ):
        self._sim = sim
        self._medium = medium
        self._node_id = node_id
        self._rng = rng
        self._cw = CW_MIN
        self._pending: Optional[Callable[[], None]] = None
        self._attempt_handle: Optional[EventHandle] = None
        self._backoff_slots_left = 0
        self.accesses_granted = 0
        self.collisions_backed_off = 0

    @property
    def busy(self) -> bool:
        """True while an access request is outstanding."""
        return self._pending is not None

    @property
    def contention_window(self) -> int:
        """The current CW (inspection for tests)."""
        return self._cw

    def request_access(self, on_grant: Callable[[], None]) -> None:
        """Ask for the medium; ``on_grant`` fires when we may transmit.

        The callback must start its transmission synchronously — the
        grant is only valid at the instant it is delivered.
        """
        if self._pending is not None:
            raise RuntimeError(f"{self._node_id}: access already requested")
        self._pending = on_grant
        self._backoff_slots_left = int(self._rng.integers(0, self._cw + 1))
        self._schedule_attempt()

    def cancel(self) -> None:
        """Withdraw an outstanding request (e.g. queue became empty)."""
        self._pending = None
        if self._attempt_handle is not None:
            self._attempt_handle.cancel()
            self._attempt_handle = None

    def notify_success(self) -> None:
        """Transmission acknowledged: reset the contention window."""
        self._cw = CW_MIN

    def notify_failure(self) -> None:
        """Transmission failed: double the contention window."""
        self._cw = min(2 * self._cw + 1, CW_MAX)
        self.collisions_backed_off += 1

    # ------------------------------------------------------------------

    def _schedule_attempt(self) -> None:
        busy_until = self._medium.busy_until(self._node_id)
        start = max(self._sim.now, busy_until)
        fire_at = start + DIFS_US + self._backoff_slots_left * SLOT_US
        self._attempt_handle = self._sim.schedule_at(fire_at, self._attempt)

    def _attempt(self) -> None:
        self._attempt_handle = None
        if self._pending is None:
            return
        busy_until = self._medium.busy_until(self._node_id)
        if busy_until > self._sim.now:
            # Medium got busy during our countdown: freeze what is left
            # of the backoff (approximated by re-running the remaining
            # slots after the medium clears).
            self._backoff_slots_left = max(0, self._backoff_slots_left - 1)
            self._schedule_attempt()
            return
        grant, self._pending = self._pending, None
        self.accesses_granted += 1
        grant()
