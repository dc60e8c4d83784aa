"""Per-client token-bucket shaping at the controller's downlink ingress.

The scarce resource on the downlink is the serving AP's 12-bit cyclic
queue: fan-out faster than the radio drains laps the ring over
undelivered slots (``overflow_drops``).  The controller box has RAM, so
:class:`AdmissionPacer` holds the excess there instead.  Each client
gets a token bucket (sustained ``admission_rate_pps``, burst
``admission_burst``) and a bounded drop-tail pacing queue.  Packets
that conform are fanned out at once; over-rate packets park in the
pacing queue and a deterministic round-robin timer releases them as
tokens refill.  All arithmetic is integer (micro-tokens), all
iteration order is insertion/deque order, so paced runs are exactly
reproducible.

Config-gated off by default (``admission_enabled``): when off the
controller never constructs a pacer and every downlink packet goes
straight to fan-out.
"""

from __future__ import annotations

from collections import deque
from typing import Callable, Deque, Dict, Optional

from repro.core.config import WgttConfig
from repro.net.packet import Packet
from repro.net.queues import DropTailQueue
from repro.sim.engine import MS, Simulator, Timer

#: Micro-units per token — integer token-bucket arithmetic with no
#: float drift: at ``rate_pps`` packets/s the bucket gains exactly
#: ``rate_pps`` micro-units per elapsed microsecond.
MICRO = 1_000_000

#: Round-robin release cadence while any pacing queue is backlogged.
ADMISSION_RELEASE_INTERVAL_US = 1 * MS


class _Bucket:
    """One client's token bucket + pacing queue."""

    __slots__ = ("tokens_micro", "last_refill_us", "queue")

    def __init__(self, now_us: int, burst: int, queue_slots: int):
        self.tokens_micro = burst * MICRO  # buckets start full
        self.last_refill_us = now_us
        self.queue = DropTailQueue(queue_slots, name="pacing")


class AdmissionPacer:
    """Deterministic token-bucket shaper over the downlink ingress.

    ``release_fn(client_id, packet)`` performs the actual fan-out.
    ``stats`` is the controller's counter dict — the pacer owns the
    ``admission_*`` keys in it.
    """

    def __init__(
        self,
        sim: Simulator,
        config: WgttConfig,
        release_fn: Callable[[str, Packet], None],
        stats: Dict[str, int],
    ):
        self._sim = sim
        self._rate_pps = int(config.admission_rate_pps)
        self._burst = int(config.admission_burst)
        self._queue_slots = int(config.admission_queue_slots)
        if self._rate_pps <= 0 or self._burst <= 0:
            raise ValueError("admission rate and burst must be positive")
        self._release_fn = release_fn
        self._stats = stats
        self._buckets: Dict[str, _Bucket] = {}
        #: Round-robin release order over clients with a backlog.
        #: Membership mirrors ``queue non-empty``; insertion order is
        #: arrival order, so release is deterministic and fair.
        self._rr: Deque[str] = deque()
        self._rr_members: set = set()
        self._release_timer = Timer(self._sim, self._release_tick)

    # ------------------------------------------------------------------

    def _bucket(self, client_id: str) -> _Bucket:
        bucket = self._buckets.get(client_id)
        if bucket is None:
            bucket = _Bucket(self._sim.now, self._burst, self._queue_slots)
            self._buckets[client_id] = bucket
        return bucket

    def _refill(self, bucket: _Bucket) -> None:
        now = self._sim.now
        elapsed = now - bucket.last_refill_us
        if elapsed <= 0:
            return
        bucket.last_refill_us = now
        bucket.tokens_micro = min(
            self._burst * MICRO,
            bucket.tokens_micro + elapsed * self._rate_pps,
        )

    def _enqueue_backlog(self, client_id: str, bucket: _Bucket) -> None:
        if client_id not in self._rr_members:
            self._rr.append(client_id)
            self._rr_members.add(client_id)
        if not self._release_timer.armed:
            self._release_timer.start(ADMISSION_RELEASE_INTERVAL_US)

    # ------------------------------------------------------------------
    # ingress
    # ------------------------------------------------------------------

    def admit(self, client_id: str, packet: Packet) -> Optional[Packet]:
        """Shape one ingress packet.

        Returns the packet when it conforms (caller fans it out now);
        returns None when it was parked in the pacing queue or dropped
        (queue full — counted in ``admission_dropped``).
        """
        bucket = self._bucket(client_id)
        self._refill(bucket)
        if bucket.queue.empty and bucket.tokens_micro >= MICRO:
            bucket.tokens_micro -= MICRO
            self._stats["admission_passthrough"] += 1
            return packet
        if bucket.queue.enqueue(packet):
            self._stats["admission_enqueued"] += 1
            self._enqueue_backlog(client_id, bucket)
        else:
            self._stats["admission_dropped"] += 1
        return None

    # ------------------------------------------------------------------
    # release
    # ------------------------------------------------------------------

    def _release_tick(self) -> None:
        """One round-robin pass over every backlogged client."""
        for _ in range(len(self._rr)):
            client_id = self._rr.popleft()
            self._rr_members.discard(client_id)
            bucket = self._buckets.get(client_id)
            if bucket is None or bucket.queue.empty:
                continue  # departed or drained since enqueue
            self._refill(bucket)
            while bucket.tokens_micro >= MICRO and not bucket.queue.empty:
                released = bucket.queue.dequeue()
                assert released is not None
                bucket.tokens_micro -= MICRO
                self._stats["admission_released"] += 1
                self._release_fn(client_id, released)
            if not bucket.queue.empty:
                self._rr.append(client_id)
                self._rr_members.add(client_id)
        if self._rr:
            self._release_timer.start(ADMISSION_RELEASE_INTERVAL_US)

    # ------------------------------------------------------------------
    # lifecycle
    # ------------------------------------------------------------------

    def forget_client(self, client_id: str) -> None:
        """Departure: free the bucket and anything still queued."""
        bucket = self._buckets.pop(client_id, None)
        if bucket is not None and not bucket.queue.empty:
            self._stats["admission_dropped"] += bucket.queue.flush()
        if client_id in self._rr_members:
            self._rr_members.discard(client_id)
            try:
                self._rr.remove(client_id)
            except ValueError:
                pass

    def backlog(self) -> int:
        """Total packets parked across every pacing queue."""
        return sum(len(b.queue) for b in self._buckets.values())

    def tracked_clients(self) -> int:
        """Bucket count — a bounded-memory probe for the soak guard."""
        return len(self._buckets)

    def halt(self) -> None:
        """Controller crash: pacing state is volatile and dies with it."""
        self._release_timer.stop()
        for bucket in self._buckets.values():
            bucket.queue.flush()
        self._buckets.clear()
        self._rr.clear()
        self._rr_members.clear()
