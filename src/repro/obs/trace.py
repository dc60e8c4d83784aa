"""Structured event tracing with simulation-time stamps.

One :class:`Tracer` hangs off every :class:`~repro.sim.engine.Simulator`
(via the :class:`~repro.obs.context.ObsContext`), so any subsystem that
already holds ``self._sim`` can emit typed events and spans without new
plumbing.  Two consumption paths share the same emit sites:

* **recording** (``--trace``): records accumulate in memory and export
  as JSONL (one canonical, byte-deterministic object per line) or as a
  Chrome ``trace_event`` file for chrome://tracing / Perfetto;
* **live sinks** (:meth:`Tracer.subscribe`): recorders such as
  :class:`~repro.obs.recorders.RateUsageLog` receive matching events as
  they happen, replacing the monkey-patched device hooks of old.

The zero-overhead-when-off contract: ``active`` is False unless
recording was requested or a sink subscribed, and while it is False
:meth:`Tracer.emit`, :meth:`Tracer.begin` and :meth:`Tracer.end` return
at once (no ``seq``, no span id, no sink).  Per-packet emit sites
(``detail=``) also guard the call with ``if tracer.active:`` — a
single attribute load — so the hot path builds no tags either.
Emission never draws randomness and never mutates protocol state, so
a traced run takes the exact same event path as an untraced one.

Timestamps are the integer microsecond simulation clock.  ``seq`` is a
global emission counter that makes ordering among same-instant records
exact; spans carry both their begin and end (ts, seq) pairs, which is
what lets the Chrome exporter nest same-instant spans (an HA promotion
and its restore/overlay children all happen at one sim instant) by
containment.
"""

from __future__ import annotations

import json
from typing import Callable, Dict, Iterator, List, Optional, Tuple

__all__ = ["TraceEvent", "Tracer", "chrome_trace"]

#: Sub-microsecond offset per sequence number used only by the Chrome
#: exporter: it spreads same-instant records apart (1 ns per seq) so
#: nested spans render as nested slices instead of zero-width ties.
_CHROME_SEQ_EPSILON_US = 1e-3


class TraceEvent:
    """One trace record: an instant event or a completed span."""

    __slots__ = ("seq", "ts", "kind", "sub", "name", "track", "tags", "end_ts", "end_seq")

    def __init__(
        self,
        seq: int,
        ts: int,
        kind: str,
        sub: str,
        name: str,
        track: Optional[str],
        tags: Dict[str, object],
    ):
        self.seq = seq
        self.ts = ts
        #: "event" (instant) or "span" (has an end).
        self.kind = kind
        #: Emitting subsystem ("controller", "ap", "mac", "backhaul", ...).
        self.sub = sub
        self.name = name
        #: Logical lane for rendering ("switch/client0", "ha", ...).
        self.track = track
        self.tags = tags
        self.end_ts: Optional[int] = None
        self.end_seq: Optional[int] = None

    @property
    def duration_us(self) -> Optional[int]:
        """A finished span's length; None for an event or an open span."""
        if self.end_ts is None:
            return None
        return self.end_ts - self.ts

    def to_record(self) -> Dict[str, object]:
        record: Dict[str, object] = {
            "seq": self.seq,
            "ts": self.ts,
            "kind": self.kind,
            "sub": self.sub,
            "name": self.name,
            "track": self.track,
            "tags": self.tags,
        }
        if self.kind == "span":
            record["end"] = self.end_ts
            record["end_seq"] = self.end_seq
        return record

    def to_json(self) -> str:
        """Canonical serialization: sorted keys, compact separators —
        the byte-identical-determinism contract for JSONL exports."""
        return json.dumps(self.to_record(), sort_keys=True, separators=(",", ":"))

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        span = f" end={self.end_ts}" if self.kind == "span" else ""
        return f"<TraceEvent #{self.seq} {self.sub}/{self.name} @{self.ts}{span}>"


class Tracer:
    """Event/span recorder bound to one simulator clock.

    ``active`` is a plain attribute (not a property) so per-packet
    sites pay a single attribute load when tracing is off.  It flips
    True when recording is enabled or any live sink subscribes; until
    then emission is a no-op.
    """

    def __init__(self, recording: bool = False, detail: bool = False):
        #: Whether anything listens; read by the emitters and by the
        #: per-packet emit sites' guards.
        self.active = recording
        #: Whether per-packet ("detail") records are kept.  Sinks always
        #: see matching detail events; the recording buffer only keeps
        #: them when detail capture was requested, so a default traced
        #: drive stays protocol-sized instead of packet-sized.
        self.detail = detail
        self._recording = recording
        self._clock: Optional[Callable[[], int]] = None
        self._seq = 0
        self._next_span_id = 1
        self._open: Dict[int, TraceEvent] = {}
        self.records: List[TraceEvent] = []
        self._sinks: List[Tuple[Optional[frozenset], Callable[[TraceEvent], None]]] = []

    # ------------------------------------------------------------------
    # wiring
    # ------------------------------------------------------------------

    def bind_clock(self, sim: object) -> None:
        """Attach the simulation clock (called by ``Simulator.__init__``)."""
        self._clock = lambda: sim.now  # type: ignore[attr-defined]

    def now(self) -> int:
        return self._clock() if self._clock is not None else 0

    def subscribe(
        self,
        sink: Callable[[TraceEvent], None],
        names: Optional[Tuple[str, ...]] = None,
    ) -> None:
        """Register a live consumer.

        ``sink`` is called with every matching :class:`TraceEvent` as it
        is emitted (spans on completion).  ``names`` filters by event
        name; None receives everything.  Subscribing flips ``active``
        on, so emit sites start producing.
        """
        self._sinks.append((frozenset(names) if names is not None else None, sink))
        self.active = True

    # ------------------------------------------------------------------
    # emission
    # ------------------------------------------------------------------

    def _stamp(self) -> Tuple[int, int]:
        seq = self._seq
        self._seq = seq + 1
        return self.now(), seq

    def _dispatch(self, event: TraceEvent) -> None:
        for names, sink in self._sinks:
            if names is None or event.name in names:
                sink(event)

    def emit(
        self,
        sub: str,
        name: str,
        track: Optional[str] = None,
        detail: bool = False,
        **tags: object,
    ) -> None:
        """Record an instant event.

        ``detail=True`` marks per-packet-volume records: they always
        reach sinks but are only kept in the recording buffer when
        detail capture is on.
        """
        if not self.active:
            return
        ts, seq = self._stamp()
        event = TraceEvent(seq, ts, "event", sub, name, track, tags)
        if self._recording and (not detail or self.detail):
            self.records.append(event)
        if self._sinks:
            self._dispatch(event)

    def begin(
        self,
        sub: str,
        name: str,
        track: Optional[str] = None,
        **tags: object,
    ) -> Optional[int]:
        """Open a span; returns an id for :meth:`end` (None while
        inactive)."""
        if not self.active:
            return None
        ts, seq = self._stamp()
        span_id = self._next_span_id
        self._next_span_id += 1
        self._open[span_id] = TraceEvent(seq, ts, "span", sub, name, track, tags)
        return span_id

    def end(self, span_id: Optional[int], **tags: object) -> None:
        """Close a span; extra tags merge into the record.  ``None``
        (a span begun while inactive) closes nothing."""
        if not self.active:
            return
        span = self._open.pop(span_id, None)
        if span is None:
            return
        span.end_ts, span.end_seq = self._stamp()
        if tags:
            span.tags.update(tags)
        if self._recording:
            self.records.append(span)
        if self._sinks:
            self._dispatch(span)

    def finish(self) -> None:
        """Close any spans still open (run ended mid-handshake, or a
        crash halted the owner): they end now, tagged ``open=True``."""
        for span_id in sorted(self._open):
            self.end(span_id, open=True)

    # ------------------------------------------------------------------
    # export
    # ------------------------------------------------------------------

    def jsonl_lines(self) -> Iterator[str]:
        for record in self.records:
            yield record.to_json()

    def export_jsonl(self, path: str) -> int:
        """Write one canonical JSON object per line; returns the count."""
        count = 0
        with open(path, "w") as handle:
            for line in self.jsonl_lines():
                handle.write(line)
                handle.write("\n")
                count += 1
        return count

    def export_chrome(self, path: str) -> int:
        """Write the Chrome ``trace_event`` rendering of the buffer."""
        payload = chrome_trace(self.records)
        with open(path, "w") as handle:
            json.dump(payload, handle, sort_keys=True, separators=(",", ":"))
        return len(payload["traceEvents"])


def chrome_trace(records: List[TraceEvent]) -> Dict[str, object]:
    """Render records as a Chrome ``trace_event`` document.

    Subsystems map to processes and tracks to threads, so Perfetto
    groups e.g. every ``switch/<client>`` lane under the emitting
    subsystem.  Spans become complete ("X") slices; the per-seq epsilon
    offset keeps same-instant parent/child spans strictly nested.
    """
    pids: Dict[str, int] = {}
    tids: Dict[Tuple[str, str], int] = {}
    for record in records:
        pids.setdefault(record.sub, 0)
    for index, sub in enumerate(sorted(pids), start=1):
        pids[sub] = index
    for record in records:
        key = (record.sub, record.track or record.sub)
        tids.setdefault(key, 0)
    for index, key in enumerate(sorted(tids), start=1):
        tids[key] = index

    events: List[Dict[str, object]] = []
    for sub in sorted(pids):
        events.append(
            {
                "ph": "M",
                "pid": pids[sub],
                "tid": 0,
                "name": "process_name",
                "args": {"name": sub},
            }
        )
    for (sub, track) in sorted(tids):
        events.append(
            {
                "ph": "M",
                "pid": pids[sub],
                "tid": tids[(sub, track)],
                "name": "thread_name",
                "args": {"name": track},
            }
        )
    for record in records:
        pid = pids[record.sub]
        tid = tids[(record.sub, record.track or record.sub)]
        ts = record.ts + record.seq * _CHROME_SEQ_EPSILON_US
        entry: Dict[str, object] = {
            "pid": pid,
            "tid": tid,
            "name": record.name,
            "cat": record.sub,
            "ts": ts,
            "args": record.tags,
        }
        if record.kind == "span":
            end = record.end_ts + record.end_seq * _CHROME_SEQ_EPSILON_US  # type: ignore[operator]
            entry["ph"] = "X"
            entry["dur"] = max(end - ts, _CHROME_SEQ_EPSILON_US)
        else:
            entry["ph"] = "i"
            entry["s"] = "t"
        events.append(entry)
    return {"traceEvents": events, "displayTimeUnit": "ms"}
