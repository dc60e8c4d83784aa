"""How fast is the box *right now*, measured while the program runs.

The reference box gives this benchmark two shared vCPUs whose speed
moves 1.2-2x on every scale from milliseconds to hours (README, "Host
time"): CPU time, not only wall time, stretches with it, and neither
best-of-N nor a median over a 30 s run gets back to one number.  So the
ledger samples the box's speed *during* every timed interval and
reports host time in reference seconds: CPU seconds scaled by how much
slower than nominal the box was while they were spent.

The probe is a fixed piece of interpreter work that is *not* the
program under test -- a pointer chase over small objects scattered
through 20 MB of heap, with a heap push/pop and a dict store per step
-- so a faster simulator still reads faster.  A profiling timer fires
it every 20 ms of process CPU time, from a signal handler, i.e. between
two bytecodes of whatever the program is doing, so the samples see the
same milliseconds the program sees.  The README has the measurements
that chose this probe over an arithmetic loop and over numpy calls.
"""

from __future__ import annotations

import heapq
import random
import signal
import time
from typing import List, Tuple

#: Seconds one probe takes on the reference box at an ordinary moment
#: (it has read 1.6 ms at the box's best and 5 ms at its worst).  Only
#: a unit: it fixes which moment's CPU seconds reference seconds are.
NOMINAL_PROBE_S = 3.0e-3
#: CPU time between probes; a probe is ~3-5 ms, so sampling costs ~15 %.
PERIOD_S = 0.020

_NODES = 200_000
_STEPS = 4_000


class _Node:
    __slots__ = ("key", "weight", "next")

    def __init__(self, key: int) -> None:
        self.key = key
        self.weight = key * 2.0
        self.next = self


def _ring() -> _Node:
    """One cycle through all nodes in shuffled order.  A probe walks
    the same 4000 of them every time: a hot set that fits the core's
    cache but is spread over 20 MB of heap, one line and one page per
    node, as a simulator's live objects are."""
    nodes = [_Node(key) for key in range(_NODES)]
    order = list(range(_NODES))
    random.Random(5).shuffle(order)
    for here, there in zip(order, order[1:] + order[:1]):
        nodes[here].next = nodes[there]
    return nodes[0]


class HostSpeed:
    """Collects probe samples between ``resume`` and ``pause``;
    ``speed`` turns the samples of an interval into one factor."""

    def __init__(self) -> None:
        self._ring = _ring()
        #: Wall seconds of every probe so far.  Wall, because this
        #: kernel accounts CPU time in 4 ms ticks, as long as a probe.
        self.samples: List[float] = []
        signal.signal(signal.SIGPROF, self._probe)

    def _probe(self, signum=None, frame=None) -> None:
        start = time.perf_counter()
        node, heap, seen = self._ring, [], {}
        for step in range(_STEPS):
            node = node.next
            node.weight += 1.0
            heapq.heappush(heap, (node.key, step))
            if step & 3 == 3:
                heapq.heappop(heap)
            seen[node.key & 4095] = node
        self.samples.append(time.perf_counter() - start)

    def resume(self) -> None:
        signal.setitimer(signal.ITIMER_PROF, PERIOD_S, PERIOD_S)

    def pause(self) -> None:
        signal.setitimer(signal.ITIMER_PROF, 0.0, 0.0)

    def mark(self) -> Tuple[int, float]:
        """Start of an interval: pass it to ``since``."""
        return len(self.samples), time.process_time()

    def since(self, mark: Tuple[int, float]) -> Tuple[float, List[float]]:
        """``(cpu_s, samples)`` of the interval: CPU seconds the
        program itself used (the probes' own time taken out) and the
        probes that fell inside it -- one taken now, if the interval
        was shorter than the timer's period."""
        first, start = mark
        cpu_s = time.process_time() - start - sum(self.samples[first:])
        if len(self.samples) == first:
            self._probe()
        return cpu_s, self.samples[first:]


def speed(samples: List[float]) -> float:
    """Box speed over the samples' interval, 1.0 = nominal.

    The mean of the probes' *rates*, not of their durations: the timer
    fires per unit of time, so slow stretches are over-sampled in
    proportion to how slow they are, and averaging 1/duration undoes
    exactly that (time-mean of work/time = total work / total time).
    It also makes a probe that was descheduled count for ~nothing."""
    return sum(NOMINAL_PROBE_S / s for s in samples) / len(samples)


def reference_seconds(cpu_s: float, samples: List[float], follows: float) -> float:
    """What ``cpu_s`` would have been on the nominal box, for work
    whose CPU time goes with the probe's to the power ``follows``: 1
    for work that slows exactly as the probe does, 0 for work the box's
    state does not touch.  The probe is core-bound; the more of its
    time a piece of work spends waiting for memory or the kernel, the
    lower its exponent (README, "Host time", has the measured ones)."""
    return cpu_s * speed(samples) ** follows
