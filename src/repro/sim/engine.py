"""Microsecond-resolution discrete-event simulation engine.

The engine is a priority queue of ``(time_us, sequence, callback)``
entries. Time is an integer number of microseconds since the start of
the simulation; the sequence number makes event ordering deterministic
when several events share a timestamp (FIFO among equals).

Every other subsystem in this reproduction — the radio channel, the
802.11 MAC, the Ethernet backhaul, TCP — schedules its work through one
shared :class:`Simulator` instance.
"""

from __future__ import annotations

import heapq
import itertools
from typing import Any, Callable, Dict, Hashable, List, Optional, Tuple

from repro.obs.context import ObsContext

#: One millisecond expressed in engine ticks (microseconds).
MS = 1_000
#: One second expressed in engine ticks (microseconds).
SECOND = 1_000_000


class EventHandle:
    """A cancellable reference to a scheduled event.

    Cancellation is lazy: the heap entry stays in place but is skipped
    when it reaches the head of the queue. This keeps cancellation O(1),
    which matters because MAC-layer timers are cancelled far more often
    than they fire.

    The handle carries a back-reference to its simulator so the engine
    can keep an exact count of cancelled-but-queued entries — that count
    drives O(1) :meth:`Simulator.pending_events` and the periodic heap
    compaction that keeps long timer-heavy runs from growing the queue
    without bound.
    """

    __slots__ = ("time_us", "callback", "cancelled", "_sim", "_queued")

    def __init__(
        self,
        time_us: int,
        callback: Callable[[], None],
        sim: Optional["Simulator"] = None,
    ):
        self.time_us = time_us
        self.callback = callback
        self.cancelled = False
        self._sim = sim
        #: True while a heap entry for this handle exists.
        self._queued = sim is not None

    def cancel(self) -> None:
        """Prevent the event from firing; safe to call more than once."""
        if not self.cancelled:
            self.cancelled = True
            if self._queued and self._sim is not None:
                self._sim._note_cancelled()

    @property
    def active(self) -> bool:
        """True while the event is still pending and not cancelled."""
        return not self.cancelled and self.callback is not None

    def _fire(self) -> None:
        callback, self.callback = self.callback, None
        if callback is not None:
            callback()


class Simulator:
    """The shared discrete-event loop; its clock starts at zero.

    Parameters
    ----------
    obs:
        Observability context (tracer + metrics).
        Every simulator carries one — a default, everything-off context
        is built when none is given, so subsystems can emit through
        ``sim.obs.trace`` unconditionally (it returns at once while
        nothing listens).
    """

    #: Queues shorter than this are never compacted — rebuilding a tiny
    #: heap costs more than skipping its few dead entries.
    COMPACT_MIN_SIZE = 64

    def __init__(self, obs: Optional[ObsContext] = None):
        self._now = 0
        self._queue: List[Tuple[int, int, EventHandle]] = []
        self._sequence = itertools.count()
        self._running = False
        self.events_processed = 0
        #: Cancelled entries still physically present in the heap.
        self._cancelled_in_queue = 0
        #: Heap rebuilds performed (observability for the perf bench).
        self.compactions = 0
        self.obs = obs if obs is not None else ObsContext()
        self.obs.trace.bind_clock(self)

    def collect_metrics(self) -> Dict[str, object]:
        """Event-loop totals for the metrics snapshot."""
        return {
            "engine_events_processed": self.events_processed,
            "engine_compactions": self.compactions,
        }

    @property
    def now(self) -> int:
        """Current simulation time in microseconds."""
        return self._now

    def schedule(self, delay_us: int, callback: Callable[[], None]) -> EventHandle:
        """Run ``callback`` after ``delay_us`` microseconds.

        A negative delay is an error: the simulator never travels
        backwards in time.
        """
        if delay_us < 0:
            raise ValueError(f"cannot schedule {delay_us} us in the past")
        return self.schedule_at(self._now + int(delay_us), callback)

    def schedule_at(self, time_us: int, callback: Callable[[], None]) -> EventHandle:
        """Run ``callback`` at absolute time ``time_us``."""
        if time_us < self._now:
            raise ValueError(
                f"cannot schedule at {time_us} us, now is {self._now} us"
            )
        handle = EventHandle(int(time_us), callback, self)
        heapq.heappush(self._queue, (int(time_us), next(self._sequence), handle))
        return handle

    def _note_cancelled(self) -> None:
        """Bookkeeping hook called by :meth:`EventHandle.cancel`.

        When more than half of a non-trivial queue is dead weight, the
        heap is rebuilt without the cancelled entries.  Each compaction
        is O(live) and at least halves the queue, so the amortized cost
        per cancellation is O(1) — and a run that cancels millions of
        timers (every MAC ACK timeout) keeps its heap at the size of
        the *live* event set.
        """
        self._cancelled_in_queue += 1
        queue = self._queue
        if (
            len(queue) >= self.COMPACT_MIN_SIZE
            and self._cancelled_in_queue * 2 > len(queue)
        ):
            self._compact()

    def _compact(self) -> None:
        """Rebuild the heap with only live entries (ordering preserved:
        the (time, sequence) keys are reused, so FIFO among equal
        timestamps survives compaction)."""
        live = []
        for entry in self._queue:
            handle = entry[2]
            if handle.cancelled:
                handle._queued = False
            else:
                live.append(entry)
        heapq.heapify(live)
        self._queue = live
        self._cancelled_in_queue = 0
        self.compactions += 1

    def peek_next_time(self) -> Optional[int]:
        """Timestamp of the next live event, or None if the queue is drained."""
        while self._queue:
            time_us, _seq, handle = self._queue[0]
            if handle.cancelled:
                heapq.heappop(self._queue)
                handle._queued = False
                self._cancelled_in_queue -= 1
                continue
            return time_us
        return None

    def step(self) -> bool:
        """Execute the single next event. Returns False when none remain."""
        while self._queue:
            time_us, _seq, handle = heapq.heappop(self._queue)
            handle._queued = False
            if handle.cancelled:
                self._cancelled_in_queue -= 1
                continue
            self._now = time_us
            self.events_processed += 1
            handle._fire()
            return True
        return False

    def run(self, until_us: Optional[int] = None) -> None:
        """Run events until the queue drains or the clock passes ``until_us``.

        When ``until_us`` is given the clock is left exactly at
        ``until_us`` even if the last event fired earlier, so that
        successive ``run`` calls see a monotonic timeline.
        """
        self._running = True
        try:
            while self._running:
                next_time = self.peek_next_time()
                if next_time is None:
                    break
                if until_us is not None and next_time > until_us:
                    break
                self.step()
        finally:
            self._running = False
        if until_us is not None and self._now < until_us:
            self._now = int(until_us)

    def stop(self) -> None:
        """Abort a ``run`` in progress after the current event returns."""
        self._running = False

    def pending_events(self) -> int:
        """Number of live (non-cancelled) events still queued — O(1),
        served from the exact cancelled-entry counter."""
        return len(self._queue) - self._cancelled_in_queue

    def queue_size(self) -> int:
        """Physical heap length, dead entries included (observability)."""
        return len(self._queue)


class Timer:
    """A restartable one-shot timer bound to a simulator.

    This is the shape MAC and transport retransmission timers want:
    ``start`` re-arms (cancelling any previous schedule), ``stop``
    disarms, and the callback receives no arguments.
    """

    def __init__(self, sim: Simulator, callback: Callable[[], None]):
        self._sim = sim
        self._callback = callback
        self._handle: Optional[EventHandle] = None

    @property
    def armed(self) -> bool:
        return self._handle is not None and self._handle.active

    @property
    def deadline_us(self) -> Optional[int]:
        """Absolute fire time while armed, else None.  The controller
        checkpointer reads this so a restored controller re-arms its
        timers at the *same* absolute instants."""
        return self._handle.time_us if self.armed else None

    def start(self, delay_us: int) -> None:
        """(Re-)arm the timer to fire ``delay_us`` from now."""
        self.stop()
        self._handle = self._sim.schedule(delay_us, self._fire)

    def start_at(self, time_us: int) -> None:
        """(Re-)arm the timer to fire at absolute ``time_us``; instants
        already in the past are clamped to now (fire on the next event
        round).  Used by checkpoint restore."""
        self.stop()
        self._handle = self._sim.schedule_at(
            max(int(time_us), self._sim.now), self._fire
        )

    def stop(self) -> None:
        """Disarm the timer if armed."""
        if self._handle is not None:
            self._handle.cancel()
            self._handle = None

    def _fire(self) -> None:
        self._handle = None
        self._callback()


class _Request:
    """One pending request: the owner's item, its retries, its timer."""

    __slots__ = ("item", "retries", "timer")

    def __init__(self, item: Any, retries: int, timer: Timer):
        self.item, self.retries, self.timer = item, retries, timer


class Retransmitter:
    """Request/ack retransmission, one pending request per key.

    :meth:`start` holds a request, sends it with ``send(item, 0)`` and
    arms its timer, in that order (the engine breaks time ties by
    sequence number).  Each timeout counts a retry: up to ``limit`` of
    them run ``send(item, retries)`` and re-arm the timer
    ``schedule(retries)`` from now; the next one drops the request and
    runs ``give_up(item, retries)``.  An ack or a cancel is :meth:`pop`.
    """

    def __init__(
        self,
        sim: Simulator,
        schedule: Callable[[int], int],
        limit: int,
        send: Callable[[Any, int], None],
        give_up: Callable[[Any, int], None],
    ):
        self._sim = sim
        self._schedule = schedule
        self._limit = limit
        self._send = send
        self._give_up = give_up
        self._pending: Dict[Hashable, _Request] = {}

    def __contains__(self, key: Hashable) -> bool:
        return key in self._pending

    def __len__(self) -> int:
        return len(self._pending)

    def get(self, key: Hashable) -> Any:
        request = self._pending.get(key)
        return None if request is None else request.item

    def items(self) -> List[Tuple[Hashable, Any]]:
        """(key, item) pairs in insertion order."""
        return [(key, request.item) for key, request in self._pending.items()]

    def deadline_us(self, key: Hashable) -> Optional[int]:
        return self._pending[key].timer.deadline_us

    def start(self, key: Hashable, item: Any) -> None:
        """Send ``item`` as a new request under ``key`` and arm its timer."""
        request = self.add(key, item)
        self._send(item, 0)
        request.timer.start(self._schedule(0))

    def add(
        self,
        key: Hashable,
        item: Any,
        retries: int = 0,
        at_us: Optional[int] = None,
    ) -> _Request:
        """Hold ``item`` under ``key`` without sending it.  Checkpoint
        restore passes the retries so far and ``at_us``, the instant the
        original timer would fire; without it the request is unarmed."""
        request = _Request(item, retries, Timer(self._sim, lambda: self._fire(key)))
        self._pending[key] = request
        if at_us is not None:
            request.timer.start_at(at_us)
        return request

    def pop(self, key: Hashable) -> Any:
        """Disarm and forget ``key``; its item, or None."""
        request = self._pending.pop(key, None)
        if request is None:
            return None
        request.timer.stop()
        return request.item

    def clear(self) -> None:
        for request in self._pending.values():
            request.timer.stop()
        self._pending = {}

    def _fire(self, key: Hashable) -> None:
        request = self._pending[key]
        request.retries += 1
        if request.retries > self._limit:
            del self._pending[key]
            self._give_up(request.item, request.retries)
            return
        self._send(request.item, request.retries)
        request.timer.start(self._schedule(request.retries))
