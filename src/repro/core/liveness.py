"""Liveness tracking from backhaul heartbeats.

The paper's controller trusts the AP array blindly: selection considers
every AP that has ever reported CSI, and the stop/start/ack protocol
retransmits forever into a dead socket.  A transit deployment needs an
explicit failure detector.  Every WGTT AP beats over the (prioritized)
backhaul control path; the controller-side tracker here declares an AP
**DEAD** after ``miss_limit`` consecutive silent heartbeat periods and
**ALIVE** again on the next heartbeat or explicit hello.  Three users:
the controller watches its APs, a warm standby its primary
(:mod:`repro.ha.standby`), and every AP its controller (buffer-and-hold).

State machine per node::

    UNKNOWN --first beat--> ALIVE --miss_limit silent periods--> DEAD
       ^                      ^                                   |
       |                      +------------- beat / hello --------+
       (never beaten: not tracked, never declared dead)

The UNKNOWN state is deliberate: an AP that has never beaten is not
declared dead, so unit rigs and the Enhanced-802.11r baseline — which
run no heartbeats at all — see no behaviour change.  The periodic check
timer is started lazily on the first beat for the same reason.

Detection lag is bounded: the last beat lands at most one period before
the crash, and the check runs once per period, so DEAD is declared
within ``(miss_limit + 1) * interval`` of the crash — 80 ms with the
default 20 ms / 3-miss configuration, inside the 100 ms failover
deadline.
"""

from __future__ import annotations

from typing import Callable, Dict, FrozenSet, List, Tuple

from repro.sim.engine import Simulator, Timer

#: Consecutive missed heartbeats before a node is declared DEAD, for
#: every watch above.  Detection lag is bounded by (miss_limit + 1)
#: heartbeat periods.
HEARTBEAT_MISS_LIMIT = 3


class LivenessTracker:
    """Heartbeat-driven failure detector for a set of backhaul nodes."""

    def __init__(
        self,
        sim: Simulator,
        interval_us: int,
        miss_limit: int = HEARTBEAT_MISS_LIMIT,
    ):
        if miss_limit <= 0:
            raise ValueError("miss_limit must be positive")
        self._sim = sim
        self.interval_us = int(interval_us)
        self.miss_limit = int(miss_limit)
        self._last_beat: Dict[str, int] = {}
        self._dead: set = set()
        self._check_timer = Timer(sim, self._check)
        #: Fired exactly once per ALIVE→DEAD transition.
        self.on_down: Callable[[str], None] = lambda ap_id: None
        #: Fired exactly once per DEAD→ALIVE transition.
        self.on_up: Callable[[str], None] = lambda ap_id: None
        #: (time_us, "down"|"up", ap_id) — the liveness event trace.
        self.events: List[Tuple[int, str, str]] = []

    # ------------------------------------------------------------------
    # inputs
    # ------------------------------------------------------------------

    def beat(self, ap_id: str) -> None:
        """Record one heartbeat (or any other sign of life)."""
        if self.interval_us <= 0:
            return  # liveness disabled
        self._last_beat[ap_id] = self._sim.now
        if ap_id in self._dead:
            self._revive(ap_id)
        if not self._check_timer.armed:
            # Lazy start: no heartbeats ever -> no periodic load.
            self._check_timer.start(self.interval_us)

    def mark_alive(self, ap_id: str) -> None:
        """Explicit hello (AP restart announcement)."""
        self.beat(ap_id)

    def forget(self, ap_id: str) -> None:
        """Stop tracking an AP (decommissioned)."""
        self._last_beat.pop(ap_id, None)
        self._dead.discard(ap_id)

    def crash(self) -> None:
        """Controller crash: the table is volatile — beat times, the
        dead set and the periodic check go; ``events`` is durable
        observability and stays."""
        self._check_timer.stop()
        self._last_beat = {}
        self._dead = set()

    def stop(self) -> None:
        """Stop for good: the table and the check go, and every later
        beat is ignored, so nothing re-arms the tracker."""
        self.crash()
        self.interval_us = 0

    def reset_clock(self, now_us: int) -> None:
        """Refresh every tracked AP's last-beat to ``now_us``.

        A promoted standby calls this: its checkpointed beat times are
        up to a checkpoint interval + an outage old, and judging them
        against the post-promotion clock would mass-declare the whole
        healthy array dead.  APs stay innocent until a fresh silent
        period proves otherwise.  Already-DEAD APs stay dead — only a
        real beat or hello revives them.
        """
        for ap_id in self._last_beat:
            if ap_id not in self._dead:
                self._last_beat[ap_id] = now_us

    # -- checkpoint support -------------------------------------------

    def snapshot(self) -> dict:
        return {
            "last_beat": dict(self._last_beat),
            "dead": sorted(self._dead),
            "events": [list(e) for e in self.events],
            "check_deadline_us": self._check_timer.deadline_us,
        }

    def restore(self, state: dict) -> None:
        self._last_beat = {
            ap: int(t) for ap, t in state["last_beat"].items()
        }
        self._dead = set(state["dead"])
        self.events = [tuple(e) for e in state["events"]]
        deadline = state["check_deadline_us"]
        if deadline is None:
            self._check_timer.stop()
        else:
            self._check_timer.start_at(int(deadline))

    # ------------------------------------------------------------------
    # queries
    # ------------------------------------------------------------------

    def dead_aps(self) -> FrozenSet[str]:
        """APs currently declared DEAD (one that never beat is not)."""
        return frozenset(self._dead)

    # ------------------------------------------------------------------
    # internals
    # ------------------------------------------------------------------

    def _revive(self, ap_id: str) -> None:
        self._dead.discard(ap_id)
        self.events.append((self._sim.now, "up", ap_id))
        self.on_up(ap_id)

    def _check(self) -> None:
        now = self._sim.now
        deadline = self.miss_limit * self.interval_us
        for ap_id in sorted(self._last_beat):
            if ap_id in self._dead:
                continue
            if now - self._last_beat[ap_id] > deadline:
                self._dead.add(ap_id)
                self.events.append((now, "down", ap_id))
                self.on_down(ap_id)
                if self.interval_us <= 0:
                    return  # stopped inside on_down: stay stopped
        self._check_timer.start(self.interval_us)
