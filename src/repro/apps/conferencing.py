"""Two-party video conferencing (paper Figure 24).

The case study runs Skype and Google Hangouts between a vehicular
client and a conference room, reporting the CDF of delivered frames per
second. The two products differ in exactly one modelled respect the
paper calls out: Hangouts *reduces per-frame resolution* under loss, so
more (smaller) frames survive, while Skype keeps resolution and loses
whole frames.

Frames are fragmented into UDP datagrams; a frame counts as delivered
in the second its last fragment arrives, provided every fragment made
it within the playout deadline.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Dict, List

from repro.net.packet import Packet
from repro.sim.engine import MS, SECOND, Simulator, Timer

#: Fragment payload size (RTP over UDP).
FRAGMENT_BYTES = 1200
#: A frame missing fragments after this long is discarded.
PLAYOUT_DEADLINE_US = 150 * MS


@dataclass
class CodecProfile:
    """What the sending application does each frame interval."""

    name: str
    target_fps: int
    frame_bytes: int
    #: Adaptive resolution: shrink frames under loss (Hangouts-style).
    adaptive: bool
    min_frame_bytes: int = 1_000


SKYPE = CodecProfile(name="skype", target_fps=30, frame_bytes=6_000, adaptive=False)
HANGOUTS = CodecProfile(
    name="hangouts", target_fps=60, frame_bytes=2_400, adaptive=True
)


class ConferencingSender:
    """Sends one direction of the call: frames at the codec cadence."""

    def __init__(
        self,
        sim: Simulator,
        src: str,
        dst: str,
        send_fn: Callable[[Packet], None],
        codec: CodecProfile,
        flow_id: str,
    ):
        self._sim = sim
        self.src, self.dst = src, dst
        self._send_fn = send_fn
        self.codec = codec
        self.flow_id = flow_id
        self._frame_bytes = codec.frame_bytes
        self._frame_id = 0
        self.frames_sent = 0
        self._interval = SECOND // codec.target_fps
        self._timer = Timer(sim, self._emit_frame)
        self._adapt_timer = Timer(sim, self._adapt)
        #: Receiver-reported delivery fraction over the last second.
        self.reported_delivery = 1.0

    def start(self) -> None:
        self._timer.start(self._interval)
        if self.codec.adaptive:
            self._adapt_timer.start(SECOND)

    def _emit_frame(self) -> None:
        fragments = max(1, -(-self._frame_bytes // FRAGMENT_BYTES))
        for i in range(fragments):
            packet = Packet(
                src=self.src,
                dst=self.dst,
                size_bytes=min(FRAGMENT_BYTES, self._frame_bytes) + 40,
                protocol="udp",
                flow_id=self.flow_id,
                seq=self._frame_id * 64 + i,
                created_us=self._sim.now,
            )
            packet.meta["frame_id"] = self._frame_id
            packet.meta["fragment"] = i
            packet.meta["fragments"] = fragments
            self._send_fn(packet)
        self._frame_id += 1
        self.frames_sent += 1
        self._timer.start(self._interval)

    def _adapt(self) -> None:
        """Hangouts-style resolution adaptation on receiver feedback."""
        if self.reported_delivery < 0.95:
            self._frame_bytes = max(
                self.codec.min_frame_bytes, int(self._frame_bytes * 0.6)
            )
        elif self.reported_delivery > 0.99:
            self._frame_bytes = min(
                self.codec.frame_bytes, int(self._frame_bytes * 1.25)
            )
        self._adapt_timer.start(SECOND)


class ConferencingReceiver:
    """Reassembles frames and tallies delivered frames per second."""

    def __init__(self, sim: Simulator, flow_id: str, sender: ConferencingSender):
        self._sim = sim
        self.flow_id = flow_id
        self._sender = sender
        self._partial: Dict[int, Dict] = {}
        self._per_second: Dict[int, int] = {}
        self.frames_delivered = 0
        self._last_feedback_frames = 0
        self._feedback_timer = Timer(sim, self._feedback)
        self._feedback_timer.start(SECOND)

    def on_packet(self, packet: Packet) -> None:
        frame_id = packet.meta["frame_id"]
        fragments = packet.meta["fragments"]
        state = self._partial.get(frame_id)
        if state is None:
            state = {"got": set(), "first_us": self._sim.now}
            self._partial[frame_id] = state
        if self._sim.now - state["first_us"] > PLAYOUT_DEADLINE_US:
            return  # frame already missed its playout slot
        state["got"].add(packet.meta["fragment"])
        if len(state["got"]) == fragments:
            del self._partial[frame_id]
            self.frames_delivered += 1
            second = self._sim.now // SECOND
            self._per_second[second] = self._per_second.get(second, 0) + 1
        self._gc()

    def _gc(self) -> None:
        if len(self._partial) < 256:
            return
        cutoff = self._sim.now - 2 * PLAYOUT_DEADLINE_US
        stale = [f for f, s in self._partial.items() if s["first_us"] < cutoff]
        for frame_id in stale:
            del self._partial[frame_id]

    def _feedback(self) -> None:
        """Report last-second delivery fraction back to the sender
        (models RTCP receiver reports driving the codec)."""
        sent = self._sender.frames_sent
        delivered = self.frames_delivered
        interval_sent = sent - getattr(self, "_last_sent", 0)
        interval_delivered = delivered - self._last_feedback_frames
        self._last_sent = sent
        self._last_feedback_frames = delivered
        if interval_sent > 0:
            self._sender.reported_delivery = interval_delivered / interval_sent
        self._feedback_timer.start(SECOND)

    def fps_series(self) -> List[int]:
        """Delivered frames per wall-clock second, in order."""
        if not self._per_second:
            return []
        seconds = range(min(self._per_second), max(self._per_second) + 1)
        return [self._per_second.get(s, 0) for s in seconds]
