"""Online video streaming with a rebuffering model (paper Table 4).

The paper's case study streams a locally cached 720p HD video over the
testbed with VLC (progressive download over FTP — i.e. a bulk TCP flow)
and a 1,500 ms pre-buffer, reporting the *rebuffer ratio*: the fraction
of the transit spent stalled. This module models the player: bytes
arriving over a TCP flow fill a playback buffer; playback drains it at
the video bitrate; hitting empty stalls playback until the pre-buffer
refills.
"""

from __future__ import annotations

from typing import List, Tuple

from repro.sim.engine import MS, SECOND, Simulator, Timer
from repro.transport.tcp import TcpReceiver

#: 1280x720 stream at a typical H.264 rate.
HD_BITRATE_BPS = 3_000_000
#: Pre-buffer before playback starts / resumes (paper: 1,500 ms).
PREBUFFER_US = 1_500 * MS
#: Player clock tick.
_TICK_US = 50 * MS


class VideoPlayer:
    """Playback-buffer state machine fed by a TCP receiver."""

    def __init__(
        self,
        sim: Simulator,
        receiver: TcpReceiver,
        bitrate_bps: float = HD_BITRATE_BPS,
    ):
        self._sim = sim
        self._receiver = receiver
        self.bitrate_bps = bitrate_bps
        self._buffered_media_us = 0.0
        self._playing = False
        self._started_us = sim.now
        self._stall_started_us: int = sim.now
        self.rebuffer_events: List[Tuple[int, int]] = []  # (start, end)
        self.total_stall_us = 0
        self._stopped = False
        self.playback_us = 0.0
        receiver.on_deliver = self._on_segments
        self._timer = Timer(sim, self._tick)
        self._timer.start(_TICK_US)

    # -- data arrival ---------------------------------------------------

    def _on_segments(self, segments: int) -> None:
        from repro.transport.tcp import MSS

        media_us = segments * MSS * 8 / self.bitrate_bps * SECOND
        self._buffered_media_us += media_us

    # -- playback clock ---------------------------------------------------

    def _tick(self) -> None:
        if self._playing:
            if self._buffered_media_us >= _TICK_US:
                self._buffered_media_us -= _TICK_US
                self.playback_us += _TICK_US
            else:
                # Buffer ran dry: a rebuffer event begins.
                self._playing = False
                self._stall_started_us = self._sim.now
        else:
            if self._buffered_media_us >= PREBUFFER_US:
                self._playing = True
                stall = self._sim.now - self._stall_started_us
                self.total_stall_us += stall
                self.rebuffer_events.append(
                    (self._stall_started_us, self._sim.now)
                )
        self._timer.start(_TICK_US)

    def stop(self) -> None:
        if self._stopped:
            return
        self._stopped = True
        self._timer.stop()
        if not self._playing:
            self.total_stall_us += self._sim.now - self._stall_started_us

    # -- metrics -----------------------------------------------------------

    def rebuffer_ratio(self, transit_duration_us: int) -> float:
        """Stall time over the transit, net of a startup allowance.

        Filling the pre-buffer at the nominal bitrate takes
        :data:`PREBUFFER_US`; a healthy link needs little more than that
        before playback starts, so the startup allowance is the actual
        first-start delay capped at twice the pre-buffer. Everything
        else spent not playing — including a stream that *never*
        manages to start — counts as stalled.
        """
        if transit_duration_us <= 0:
            return 0.0
        allowance_cap = 2 * PREBUFFER_US
        if self.rebuffer_events:
            first_start_delay = self.rebuffer_events[0][1] - self._started_us
            startup_allowance = min(first_start_delay, allowance_cap)
        else:
            startup_allowance = allowance_cap
        not_playing = self.total_stall_us
        if not self._playing and not self._stopped:
            not_playing += self._sim.now - self._stall_started_us
        stalled = max(0, not_playing - startup_allowance)
        return min(1.0, stalled / transit_duration_us)

    @property
    def rebuffer_count(self) -> int:
        return max(0, len(self.rebuffer_events) - 1)

    @property
    def playing(self) -> bool:
        """Whether playback is running (inspection for tests)."""
        return self._playing
