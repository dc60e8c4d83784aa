"""The shared 2.4 GHz wireless medium (channel 11).

The medium is where transmissions physically overlap: it tracks every
frame on the air, answers carrier-sense queries for the DCF, and — when
a frame's airtime ends — hands each potential receiver a per-subcarrier
SINR snapshot with co-channel interference folded in. Capture is
implicit: a strong frame keeps a usable SINR through a weak overlap,
a near-tie destroys both. Half-duplex radios never receive while they
transmit.

All eight testbed APs and every client share this one channel, exactly
as deployed in the paper (§4: "channel 11 ... without modification").
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Collection, Dict, List, Optional, Set, Tuple

import numpy as np

from repro.channel.antenna import Antenna
from repro.channel.link import ChannelMap, NOISE_FLOOR_DBM
from repro.channel.link_batch import warm_snapshots
from repro.mac.frames import Frame, SIFS_US
from repro.mobility.road import Position
from repro.mobility.spatial import ApGridIndex
from repro.phy.per import prewarm_receivers
from repro.sim.engine import Simulator

#: Energy level above which a station defers (carrier sense).
CS_THRESHOLD_DBM = -82.0
#: A transmission is only *sensed* after this many microseconds on air;
#: two stations firing within this window collide instead of deferring.
SENSE_DELAY_US = 4
#: How long finished transmissions are kept for interference accounting.
HISTORY_US = 20_000
#: Mean received power below which a frame is not even energy-detectable.
AUDIBLE_FLOOR_DBM = NOISE_FLOOR_DBM - 10
#: A sender still audible this far along the road reaches every radio.
MAX_SOUND_RADIUS_M = 2_000.0


@dataclass
class Transmission:
    """A frame occupying the medium for [start_us, end_us)."""

    sender: str
    frame: Frame
    start_us: int
    end_us: int
    channel: int = 11


class MacEntity:
    """Interface the medium expects from a registered radio device."""

    node_id: str
    #: Wi-Fi channel the radio is tuned to. Radios on different
    #: channels neither interfere with nor hear one another (adjacent-
    #: channel leakage is neglected). The paper's testbed is single-
    #: channel; the multi-channel ablation of §7 retunes APs.
    channel: int = 11

    def on_air_frame(
        self, frame: Frame, snr_db: Optional[np.ndarray], decodable: bool
    ) -> None:
        """Called at the end of every other station's transmission that
        could reach this radio (one provably out of earshot is skipped).
        Three outcomes: ``(None, False)``, not received (below the
        audible floor, or this radio was itself transmitting);
        ``(row, True)``, received, ``row`` being the per-subcarrier SINR
        snapshot here with interference folded in; ``(None, True)``,
        heard but not read (:meth:`wants_snapshot` said no, so no
        snapshot exists) -- the radio must still spend the randomness
        its decode attempt would have.
        """
        raise NotImplementedError

    def wants_snapshot(self, frame: Frame) -> bool:
        """Will this radio *read* its snapshot of ``frame``?  False lets
        the medium skip the channel and PHY work -- between two fixed
        radios only, whose link no other frame samples."""
        return True

    def cares_about(self, frame: Frame, sender_role: Optional[str]) -> bool:
        """Cheap pre-filter: should the medium bother computing this
        receiver's SINR for ``frame``? Devices that can never use the
        frame (e.g. a client hearing another client's data) return
        False and skip the channel-model work entirely.  ``sender_role``
        is the transmitter's :meth:`WirelessMedium.role_of`."""
        return True


class WirelessMedium:
    """Arbiter for one Wi-Fi channel."""

    def __init__(self, sim: Simulator, channel_map: ChannelMap):
        self._sim = sim
        self._channel = channel_map
        self._devices: Dict[str, MacEntity] = {}
        self._transmissions: List[Transmission] = []
        self.frames_sent = 0
        self.airtime_us = 0
        #: Cumulative candidate receivers walked by frame completions.
        self.receivers_examined = 0
        # Audibility index, rebuilt lazily by ``_reindex`` (None = stale).
        self._indexed_epoch: Optional[int] = None

    # ------------------------------------------------------------------
    # registration
    # ------------------------------------------------------------------

    def register(self, device: MacEntity) -> None:
        if device.node_id in self._devices:
            raise ValueError(f"duplicate device {device.node_id!r}")
        self._devices[device.node_id] = device
        self._indexed_epoch = None

    def unregister(self, node_id: str) -> None:
        """Remove a retired device from the medium.

        Churn support: a departed vehicle must stop being a candidate
        receiver (and stop pinning its MacEntity).  Callers must defer
        this past the interference-history horizon — ``busy_until`` and
        ``_complete`` replay recent ``_transmissions`` through the
        channel map, which fails once the port is forgotten.
        """
        self._devices.pop(node_id, None)
        self._indexed_epoch = None

    def devices(self):
        return self._devices.values()

    def collect_metrics(self) -> Dict[str, object]:
        """Air-side totals for the metrics snapshot."""
        return {
            "medium_frames_sent": self.frames_sent,
            "medium_airtime_us": self.airtime_us,
        }

    def role_of(self, node_id: str) -> Optional[str]:
        """``"ap"`` / ``"client"`` for a registered radio, else None."""
        return getattr(self._devices.get(node_id), "role", None)

    # ------------------------------------------------------------------
    # audibility index
    # ------------------------------------------------------------------

    def _reindex(self) -> None:
        """Sort the registered radios into *indexed* (fixed position,
        boundable antenna: found by x-range query) and *roaming*
        (everything else: a candidate receiver of every frame)."""
        self._indexed_epoch = self._channel.geometry_epoch
        self._order = {node_id: i for i, node_id in enumerate(self._devices)}
        self._fixed = ApGridIndex()
        self._roaming: List[str] = []
        self._rx_antennas: Dict[tuple, Antenna] = {}
        self._radius: Dict[tuple, float] = {}
        #: Distinct cross-road (y, z) spots the indexed radios occupy.
        self._spots: Set[Tuple[float, float]] = set()
        for node_id in self._devices:
            port = self._channel.port(node_id)
            key = port.antenna.bound_key()
            if port.fixed_position is None or key is None:
                self._roaming.append(node_id)
                continue
            self._fixed.add(node_id, port.fixed_position)
            self._rx_antennas.setdefault(key, port.antenna)
            self._spots.add((port.fixed_position.y, port.fixed_position.z))

    def _sound_radius_m(self, sender: str, pos: Position) -> float:
        """Along-road distance beyond which ``sender`` (at ``pos``) is
        provably below :data:`AUDIBLE_FLOOR_DBM` at every indexed radio:
        the first whole metre at which the power bound, non-increasing
        in the offset, has fallen through the floor."""
        # Farthest an indexed radio can sit from the sender across the
        # road, rounded up (the bound only grows with it).
        cross = math.ceil(
            max(math.hypot(y - pos.y, z - pos.z) for y, z in self._spots)
        )
        bound = self._channel.mean_rx_power_bound_dbm
        radius = 0.0
        while radius < MAX_SOUND_RADIUS_M and any(
            bound(sender, antenna, radius, cross) >= AUDIBLE_FLOOR_DBM
            for antenna in self._rx_antennas.values()
        ):
            radius += 1.0
        return radius if radius < MAX_SOUND_RADIUS_M else math.inf

    def _candidates(self, tx: Transmission) -> Collection[str]:
        """Registration-ordered superset of the radios that can hear
        ``tx``: every roaming radio, plus the indexed ones within the
        sender's sound radius (derivation: ``docs/scaling.md``).  One
        solve per (power, antenna kind, lane)."""
        if self._indexed_epoch != self._channel.geometry_epoch:
            self._reindex()
        if not self._spots:
            return self._devices
        port = self._channel.port(tx.sender)
        pos = port.position_at(tx.start_us)
        key = (port.tx_power_dbm, port.antenna.bound_key(), pos.y, pos.z)
        radius = self._radius.get(key)
        if radius is None:
            radius = self._radius[key] = self._sound_radius_m(tx.sender, pos)
        ids = self._fixed.within(pos.x, radius) + self._roaming
        ids.sort(key=self._order.__getitem__)
        return ids

    # ------------------------------------------------------------------
    # carrier sense
    # ------------------------------------------------------------------

    def busy_until(self, node_id: str, now: Optional[int] = None) -> int:
        """Latest end time of any transmission this node can sense.

        Returns a time <= now when the medium appears idle. Frames that
        started less than :data:`SENSE_DELAY_US` ago are invisible —
        that blind spot is what produces genuine collisions.
        """
        now = self._sim.now if now is None else now
        own_channel = self._channel_of(node_id)
        latest = 0
        for tx in self._transmissions:
            if tx.end_us <= now:
                continue
            if tx.sender == node_id:
                latest = max(latest, tx.end_us)
                continue
            if tx.channel != own_channel:
                continue
            if tx.start_us > now - SENSE_DELAY_US:
                continue
            if (
                self._channel.mean_rx_power_dbm(tx.sender, node_id, tx.start_us)
                >= CS_THRESHOLD_DBM
            ):
                latest = max(latest, tx.end_us)
        return latest

    def _channel_of(self, node_id: str) -> int:
        device = self._devices.get(node_id)
        return getattr(device, "channel", 11)

    def is_idle(self, node_id: str) -> bool:
        return self.busy_until(node_id) <= self._sim.now

    # ------------------------------------------------------------------
    # transmission
    # ------------------------------------------------------------------

    def transmit(self, frame: Frame) -> Transmission:
        """Put ``frame`` on the air now; reception resolves at its end."""
        now = self._sim.now
        duration = frame.duration_us()
        tx = Transmission(
            frame.tx_device, frame, now, now + duration,
            channel=self._channel_of(frame.tx_device),
        )
        self._transmissions.append(tx)
        self.frames_sent += 1
        self.airtime_us += duration
        tracer = self._sim.obs.trace
        if tracer.active:
            tracer.emit(
                "medium",
                "air-tx",
                track=f"air/{tx.channel}",
                detail=True,
                sender=tx.sender,
                frame=type(frame).__name__,
                duration_us=duration,
            )
        self._sim.schedule(duration, lambda: self._complete(tx))
        self._prune(now)
        return tx

    def transmit_response(self, frame: Frame, delay_us: int = SIFS_US) -> None:
        """Send a SIFS-separated response (BA/ACK) without DCF contention.

        The responder performs a last-instant sense and silently drops
        its response if another station beat it to the air — this is how
        near-simultaneous block ACKs from multiple WGTT APs usually avoid
        colliding (paper §5.3.2).
        """

        def fire():
            if not self.is_idle(frame.tx_device):
                return
            self.transmit(frame)

        self._sim.schedule(delay_us, fire)

    def _prune(self, now: int) -> None:
        cutoff = now - HISTORY_US
        self._transmissions = [
            t for t in self._transmissions if t.end_us >= cutoff
        ]

    # ------------------------------------------------------------------
    # reception
    # ------------------------------------------------------------------

    def _complete(self, tx: Transmission) -> None:
        noise_mw = 10.0 ** (NOISE_FLOOR_DBM / 10.0)
        # The overlap geometry of every co-channel transmission against
        # ``tx`` is receiver-independent, so it is computed ONCE here
        # rather than inside the per-receiver interference loop — with
        # a dozen radios and a 20 ms history that scan used to dominate
        # frame completion.  ``interferers`` keeps the transmission-list
        # order, so the per-receiver float sums below are bit-identical
        # to the old per-receiver scan.
        tx_start, tx_end = tx.start_us, tx.end_us
        duration = max(tx_end - tx_start, 1)
        interferers = []  # (sender, start_us, overlap_fraction)
        active_senders = set()  # anyone on air during [start, end)
        for other in self._transmissions:
            overlap = (
                min(other.end_us, tx_end) - max(other.start_us, tx_start)
            )
            if overlap <= 0:
                continue
            active_senders.add(other.sender)
            if other is tx or other.channel != tx.channel:
                continue
            interferers.append(
                (other.sender, other.start_us, overlap / duration)
            )
        # ---- plan pass: apply the cheap per-receiver filters first, so
        # the receivers that need a full SINR snapshot are known before
        # any channel math runs.  They form this completion's
        # contention-domain batch: one fused multi-link fading step and
        # one stacked PHY prewarm instead of per-receiver scalar calls.
        # Every per-link computation is independent (private RNG
        # streams, per-link caches) and ``on_air_frame`` dispatch keeps
        # the device registration order, so neither the batching nor
        # the candidate pruning can move a bit.
        mean_power = self._channel.mean_rx_power_dbm
        port = self._channel.port
        sender_role = self.role_of(tx.sender)
        sender_fixed = port(tx.sender).fixed_position is not None
        candidates = self._candidates(tx)
        self.receivers_examined += len(candidates)
        receivers: List[tuple] = []  # (node_id, device, link_or_None, decodable)
        for node_id in candidates:
            if node_id == tx.sender:
                continue
            device = self._devices[node_id]
            if getattr(device, "channel", 11) != tx.channel:
                continue  # tuned elsewhere: hears nothing
            if not device.cares_about(tx.frame, sender_role):
                continue
            if (
                node_id in active_senders  # half-duplex: it was transmitting
                or mean_power(tx.sender, node_id, tx_start) < AUDIBLE_FLOOR_DBM
            ):
                receivers.append((node_id, device, None, False))
            elif (
                sender_fixed
                and not device.wants_snapshot(tx.frame)
                and port(node_id).fixed_position is not None
            ):
                # Heard, not read: this Link's fading stream is sampled
                # nowhere else, so not building it is unobservable.
                receivers.append((node_id, device, None, True))
            else:
                receivers.append(
                    (node_id, device, self._channel.link(tx.sender, node_id), True)
                )

        live = [
            (i, entry[2])
            for i, entry in enumerate(receivers)
            if entry[2] is not None
        ]
        rows: List[Optional[np.ndarray]] = [None] * len(receivers)
        snaps = warm_snapshots(
            tx_start, [(link, tx.sender) for _i, link in live]
        )
        for (i, _link), snr_db in zip(live, snaps):
            node_id = receivers[i][0]
            interference_mw = 0.0
            for sender, start_us, weight in interferers:
                if sender == node_id:
                    continue
                power_dbm = mean_power(sender, node_id, start_us)
                interference_mw += weight * 10.0 ** (power_dbm / 10.0)
            if interference_mw > 0.0:
                penalty_db = 10.0 * math.log10(1.0 + interference_mw / noise_mw)
                snr_db = snr_db - penalty_db
            rows[i] = snr_db
        if len(live) >= 2:
            # Seed the preamble memo for the whole contention domain in
            # one stacked kernel call, on the very row objects handed to
            # ``on_air_frame``.  Only the preamble: it is the one PHY
            # term every receiver evaluates unconditionally; eagerly
            # seeding data / CSI terms, gated on a per-device preamble
            # draw, measured as a net loss (docs/performance.md).
            prewarm_receivers([rows[i] for i, _link in live])
        for row, (_node_id, device, _link, decodable) in zip(rows, receivers):
            device.on_air_frame(tx.frame, row, decodable)
