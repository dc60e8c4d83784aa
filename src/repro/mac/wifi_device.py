"""The 802.11 station: queues, aggregation, block ACK, and callbacks.

:class:`WifiDevice` is the MAC entity used for every radio in the
system — WGTT APs, baseline APs, and vehicular clients. Behavioural
differences live in thin wrappers (``repro.core.access_point``,
``repro.baselines``); the MAC mechanics here are shared:

* per-peer transmit sessions (service queue + block-ACK scoreboard +
  Minstrel rate state),
* DCF channel access with one in-flight exchange at a time,
* A-MPDU transmission, BA response generation, BA timeout handling,
* receive-side reorder buffers with in-order delivery,
* management frames with ACK + retry, periodic beacons,
* hooks: packet delivery, CSI measurement, overheard block ACKs,
  rate-usage logging, queue refill.

Logical vs physical addressing matters throughout: WGTT's APs share a
single BSSID, so a client-transmitted frame addressed to the BSSID is
*addressed to every AP at once* — that one property gives WGTT its
uplink diversity, its everyone-answers block ACKs (paper Table 3), and
its BA-overhearing forwarding path, with no monitor interface needed
in the model.
"""

from __future__ import annotations

from collections import deque
from typing import Callable, Deque, Dict, List, Optional, Set

import numpy as np

from repro.mac.aggregation import build_ampdu_mpdus
from repro.mac.blockack import BlockAckScoreboard, ReorderBuffer
from repro.mac.dcf import Dcf
from repro.mac.frames import (
    AckFrame,
    BeaconFrame,
    BlockAckFrame,
    DataAmpdu,
    Frame,
    MgmtFrame,
    SIFS_US,
)
from repro.mac.medium import MacEntity, WirelessMedium
from repro.mac.rate_control import MinstrelRateController
from repro.net.packet import Packet
from repro.net.queues import DropTailQueue
from repro.phy.mcs import BASIC_RATE
from repro.phy.per import (
    mpdu_payload_success_probability,
    preamble_success_probability,
    wideband_rssi_offset_db,
)
from repro.channel.link import NOISE_FLOOR_DBM
from repro.sim.engine import Simulator, Timer
from repro.sim.rng import RngRegistry

#: Service ("lower stack") queue: mac80211 + driver + NIC, ~100 packets
#: of buffering as the paper describes (§1: "ca. 20 ms or 100 packets").
SERVICE_QUEUE_CAPACITY = 128
#: Extra wait for the BA beyond the response SIFS before declaring loss.
BA_TIMEOUT_MARGIN_US = 60
#: Management-frame retry limit.
MGMT_RETRY_LIMIT = 7
#: Beacon period (both WGTT and the baseline beacon at 100 ms).
BEACON_INTERVAL_US = 100_000


class TxSession:
    """Per-peer transmit state."""

    def __init__(self, device: "WifiDevice", peer: str):
        self.peer = peer
        self.scoreboard = BlockAckScoreboard()
        self.queue = DropTailQueue(SERVICE_QUEUE_CAPACITY, name=f"svc:{peer}")
        self.rate = MinstrelRateController(
            device._sim, device._rng.stream(f"minstrel/{device.node_id}/{peer}")
        )
        self.awaiting: Optional[DataAmpdu] = None
        self.ba_timer = Timer(device._sim, lambda: device._ba_timeout(self))
        #: "active": normal operation. "drain": finish what is already
        #: on the scoreboard but pull nothing new (a WGTT AP that got a
        #: stop(c) — the paper's NIC-hardware-queue drain). "off": do
        #: not transmit at all.
        self.mode = "active"
        #: Consecutive fully-failed exchanges: drives the multi-rate
        #: retry chain (each failure falls back one MCS, like ath9k's
        #: Minstrel retry stages).
        self.consecutive_failures = 0

    @property
    def enabled(self) -> bool:
        return self.mode == "active"

    def has_work(self) -> bool:
        if self.mode == "off" or self.awaiting is not None:
            return False
        if self.scoreboard.has_retransmits:
            return True
        if self.mode == "drain":
            return False
        return not self.queue.empty and self.scoreboard.window_room() > 0


class WifiDevice(MacEntity):
    """One physical 802.11 radio."""

    def __init__(
        self,
        sim: Simulator,
        medium: WirelessMedium,
        rng: RngRegistry,
        node_id: str,
        role: str = "ap",
        addresses: Optional[Set[str]] = None,
        monitor: bool = False,
        response_jitter_us: int = 0,
    ):
        if role not in ("ap", "client"):
            raise ValueError("role must be 'ap' or 'client'")
        self._sim = sim
        self._medium = medium
        self._rng = rng
        self.node_id = node_id
        self.role = role
        self.monitor = monitor
        #: Wi-Fi channel this radio is tuned to (single-radio devices
        #: hear nothing on other channels). Default: channel 11, the
        #: testbed's single operating channel.
        self.channel = 11
        #: Logical addresses this radio answers to (own id + BSSID aliases).
        self.addresses: Set[str] = set(addresses or ()) | {node_id}
        #: Address written into the TA field of transmitted frames.
        self.ta_address = node_id
        self.response_jitter_us = response_jitter_us
        self._draw = rng.stream(f"mac/{node_id}")
        self.dcf = Dcf(sim, medium, node_id, rng.stream(f"dcf/{node_id}"))
        self._sessions: Dict[str, TxSession] = {}
        self._reorder: Dict[str, ReorderBuffer] = {}
        self._rr_order: Deque[str] = deque()
        self._control_jobs: Deque[dict] = deque()
        self._mgmt_inflight: Optional[dict] = None
        self._mgmt_timer = Timer(sim, self._mgmt_timeout)
        self._beacon_timer: Optional[Timer] = None

        # hooks
        self.on_packet: Callable[[Packet, str], None] = lambda p, src: None
        self.on_csi: Callable[[str, np.ndarray, float], None] = (
            lambda client, snr, rssi: None
        )
        self.on_overheard_block_ack: Callable[[BlockAckFrame], None] = (
            lambda f: None
        )
        #: Unset, the radio declines beacon snapshots (``wants_snapshot``).
        self.on_beacon: Optional[Callable[[BeaconFrame, float], None]] = None
        self.on_mgmt: Callable[[MgmtFrame], None] = lambda f: None
        self.on_refill_needed: Callable[[str], None] = lambda peer: None
        self.on_ba_processed: Callable[[BlockAckFrame], None] = lambda f: None
        #: Gate on incoming data by transmitter address: a roaming
        #: client drops (and never acknowledges) frames from a BSS it
        #: has de-associated from.
        self.accept_data_from: Callable[[str], bool] = lambda ta: True

        #: Time of this radio's last transmission (any frame type);
        #: clients use it to decide when a NULL-frame keepalive is due.
        self.last_tx_us = 0

        #: Fault-injection power switch: a powered-off radio neither
        #: transmits nor receives (no RX draws, no timers, no airtime).
        self.powered = True

        # stats
        self.stats = {
            "mpdus_sent": 0,
            "mpdus_acked": 0,
            "mpdus_dropped": 0,
            "ampdus_sent": 0,
            "ba_sent": 0,
            "ba_received": 0,
            "ba_timeouts": 0,
            "beacons_sent": 0,
            "duplicates": 0,
            "uplink_retransmissions": 0,
        }
        medium.register(self)

    # ------------------------------------------------------------------
    # public API
    # ------------------------------------------------------------------

    def has_session(self, peer: str) -> bool:
        """Whether ``peer`` was ever given a transmit session (unlike
        :meth:`session`, asking creates none)."""
        return peer in self._sessions

    def session(self, peer: str) -> TxSession:
        existing = self._sessions.get(peer)
        if existing is None:
            existing = TxSession(self, peer)
            self._sessions[peer] = existing
            self._rr_order.append(peer)
        return existing

    def reorder_buffer(self, peer: str) -> ReorderBuffer:
        buffer = self._reorder.get(peer)
        if buffer is None:
            buffer = ReorderBuffer()
            self._reorder[peer] = buffer
        return buffer

    def enqueue(self, packet: Packet, peer: str) -> bool:
        """Queue a packet for transmission to ``peer`` (logical addr)."""
        if not self.powered:
            return False
        accepted = self.session(peer).queue.enqueue(packet)
        self._kick()
        return accepted

    def power_off(self) -> None:
        """Crash the radio: silence every session, cancel every timer.

        In-flight airtime already handed to the medium finishes (the RF
        energy is out there), but nothing new leaves, nothing is heard,
        and all MAC state that a rebooting device would lose is lost.
        """
        if not self.powered:
            return
        self.powered = False
        for session in self._sessions.values():
            session.ba_timer.stop()
            session.awaiting = None
            session.queue.flush()
            session.scoreboard.abandon_all()
            session.consecutive_failures = 0
            session.mode = "off"
        self._control_jobs.clear()
        self._mgmt_inflight = None
        self._mgmt_timer.stop()
        if self._beacon_timer is not None:
            self._beacon_timer.stop()
        self.dcf.cancel()

    def power_on(self) -> None:
        """Boot the radio back up (sessions stay "off" until re-armed —
        a rebooted AP serves nobody until told to)."""
        self.powered = True

    def queue_len(self, peer: str) -> int:
        """MPDUs queued for ``peer`` (the baseline's stranded backlog)."""
        return len(self.session(peer).queue)

    def queue_room(self, peer: str) -> int:
        session = self.session(peer)
        return session.queue.capacity - len(session.queue)

    def set_session_mode(self, peer: str, mode: str) -> None:
        """Gate transmission to one peer (WGTT's stop/start switching).

        Modes: "active" (normal), "drain" (finish in-flight/retry MPDUs
        only — the post-stop NIC drain), "off" (silent).
        """
        if mode not in ("active", "drain", "off"):
            raise ValueError(f"unknown session mode {mode!r}")
        self.session(peer).mode = mode
        if mode != "off":
            self._kick()

    def reset_tx_state(self, peer: str, seq: int) -> None:
        """Adopt transmission duty mid-stream: continue the shared
        per-client sequence space from ``seq`` with a clean slate."""
        session = self.session(peer)
        session.ba_timer.stop()
        session.awaiting = None
        session.queue.flush()
        session.consecutive_failures = 0
        session.scoreboard.reset_to(seq)

    def send_mgmt(
        self,
        subtype: str,
        ra: str,
        payload: Optional[dict] = None,
        on_result: Optional[Callable[[bool], None]] = None,
    ) -> None:
        """Send a management frame with ACK-based retries."""
        frame = MgmtFrame(
            tx_device=self.node_id,
            ta=self.ta_address,
            ra=ra,
            subtype=subtype,
            payload=payload or {},
        )
        self._control_jobs.append(
            {"kind": "mgmt", "frame": frame, "retries": 0, "on_result": on_result}
        )
        self._kick()

    def start_beaconing(self, interval_us: int = BEACON_INTERVAL_US) -> None:
        """Begin periodic beacon transmission (APs only)."""
        if self.role != "ap":
            raise RuntimeError("only APs beacon")

        def tick():
            self._control_jobs.append({"kind": "beacon"})
            self._kick()
            self._beacon_timer.start(interval_us)

        self._beacon_timer = Timer(self._sim, tick)
        # Stagger the first beacon per AP so arrays don't synchronize.
        self._beacon_timer.start(int(self._draw.integers(0, interval_us)))

    def apply_block_ack_info(self, peer: str, acked: Set[int]) -> dict:
        """Apply externally learned BA information (WGTT forwarding).

        Returns accounting of what the information changed.
        """
        session = self.session(peer)
        delivered = session.scoreboard.apply_external_ack(set(acked))
        self.stats["mpdus_acked"] += len(delivered)
        self._kick()
        return {"delivered": len(delivered)}

    # ------------------------------------------------------------------
    # transmit path
    # ------------------------------------------------------------------

    def _sessions_with_work(self) -> List[str]:
        return [p for p in self._rr_order if self._sessions[p].has_work()]

    def _kick(self) -> None:
        if not self.powered:
            return
        if self.dcf.busy:
            return
        if self._mgmt_inflight is not None:
            return
        if self._control_jobs or self._sessions_with_work():
            self.dcf.request_access(self._granted)
        self._request_refills()

    def _request_refills(self) -> None:
        for peer, session in self._sessions.items():
            if session.enabled:
                room = session.queue.capacity - len(session.queue)
                if room > session.queue.capacity // 2:
                    self.on_refill_needed(peer)

    def _granted(self) -> None:
        if self._control_jobs:
            self._send_control_job(self._control_jobs.popleft())
            return
        ready = self._sessions_with_work()
        if not ready:
            return
        # Round-robin: rotate the order so every peer gets airtime.
        peer = ready[0]
        self._rr_order.remove(peer)
        self._rr_order.append(peer)
        self._send_ampdu(self._sessions[peer])

    def _send_control_job(self, job: dict) -> None:
        if job["kind"] == "beacon":
            frame = BeaconFrame(tx_device=self.node_id, ta=self.ta_address, ra="*")
            self._medium.transmit(frame)
            self.stats["beacons_sent"] += 1
            # No response expected; re-kick right after airtime.
            self._sim.schedule(frame.duration_us() + 1, self._kick)
            return
        if job["kind"] == "mgmt":
            frame = job["frame"]
            self._medium.transmit(frame)
            self._mgmt_inflight = job
            self._mgmt_timer.start(
                frame.duration_us() + SIFS_US + 40 + BA_TIMEOUT_MARGIN_US
            )
            return
        raise ValueError(f"unknown control job {job['kind']!r}")

    def _send_ampdu(self, session: TxSession) -> None:
        mcs = session.rate.select_mcs()
        if session.consecutive_failures:
            # Multi-rate retry chain: every consecutive all-failed
            # exchange steps one MCS down until something gets through.
            from repro.phy.mcs import MCS_TABLE

            fallback = max(0, mcs.index - session.consecutive_failures)
            mcs = MCS_TABLE[fallback]
        mpdus = build_ampdu_mpdus(session.scoreboard, session.queue, mcs)
        if not mpdus:
            self._kick()
            return
        frame = DataAmpdu(
            tx_device=self.node_id,
            ta=self.ta_address,
            ra=session.peer,
            mpdus=mpdus,
            mcs=mcs,
            window_start=session.scoreboard.window_start,
        )
        session.scoreboard.record_transmit(mpdus)
        session.awaiting = frame
        self.last_tx_us = self._sim.now
        self._medium.transmit(frame)
        self.stats["ampdus_sent"] += 1
        self.stats["mpdus_sent"] += len(mpdus)
        tracer = self._sim.obs.trace
        if tracer.active:
            # Replaces the old monkey-patched on_rate_used device hook:
            # RateUsageLog subscribes to this event by name.
            tracer.emit(
                "mac",
                "ampdu-tx",
                track=f"mac/{self.node_id}",
                detail=True,
                node=self.node_id,
                peer=session.peer,
                mcs=mcs.index,
                rate_bps=mcs.data_rate_bps,
                count=len(mpdus),
            )
        ba_round_trip = (
            frame.duration_us()
            + SIFS_US
            + self.response_jitter_us
            + 52  # BA airtime
            + BA_TIMEOUT_MARGIN_US
        )
        session.ba_timer.start(ba_round_trip)
        self._request_refills()

    def _ba_timeout(self, session: TxSession) -> None:
        frame = session.awaiting
        if frame is None:
            return
        session.awaiting = None
        session.scoreboard.process_timeout(frame.seqs())
        session.rate.feedback(frame.mcs, attempted=len(frame.mpdus), acked=0)
        session.consecutive_failures += 1
        self.dcf.notify_failure()
        self.stats["ba_timeouts"] += 1
        tracer = self._sim.obs.trace
        tracer.emit(
            "mac",
            "ba-timeout",
            track=f"mac/{self.node_id}",
            node=self.node_id,
            peer=session.peer,
            mpdus=len(frame.mpdus),
        )
        self._kick()

    def _mgmt_timeout(self) -> None:
        job = self._mgmt_inflight
        if job is None:
            return
        self._mgmt_inflight = None
        job["retries"] += 1
        if job["retries"] > MGMT_RETRY_LIMIT:
            if job["on_result"] is not None:
                job["on_result"](False)
        else:
            self.dcf.notify_failure()
            self._control_jobs.appendleft(job)
        self._kick()

    # ------------------------------------------------------------------
    # receive path
    # ------------------------------------------------------------------

    def cares_about(self, frame: Frame, sender_role: Optional[str]) -> bool:
        if not self.powered:
            return False
        if frame.is_broadcast or frame.ra in self.addresses:
            return True
        # Monitor APs overhear client transmissions (CSI + BA forwarding).
        return self.role == "ap" and self.monitor and sender_role == "client"

    def wants_snapshot(self, frame: Frame) -> bool:
        return self.on_beacon is not None or not isinstance(frame, BeaconFrame)

    def on_air_frame(
        self, frame: Frame, snr_db: Optional[np.ndarray], decodable: bool
    ) -> None:
        if snr_db is None:
            if decodable:
                # Heard, not read: the draw ``_receive_beacon`` would make,
                # from the stream this radio's data / BA / CSI decodes share.
                self._draw.random()
            return
        if isinstance(frame, DataAmpdu):
            self._receive_data(frame, snr_db)
        elif isinstance(frame, BlockAckFrame):
            self._receive_block_ack(frame, snr_db)
        elif isinstance(frame, BeaconFrame):
            self._receive_beacon(frame, snr_db)
        elif isinstance(frame, MgmtFrame):
            self._receive_mgmt(frame, snr_db)
        elif isinstance(frame, AckFrame):
            self._receive_ack(frame, snr_db)

    def _maybe_csi(self, frame: Frame, snr_db: np.ndarray) -> None:
        """APs measure CSI on every decodable client transmission."""
        if self.role != "ap":
            return
        if self._medium.role_of(frame.tx_device) != "client":
            return
        if self._draw.random() >= preamble_success_probability(snr_db):
            return
        rssi_dbm = NOISE_FLOOR_DBM + wideband_rssi_offset_db(snr_db)
        self.on_csi(frame.tx_device, snr_db, rssi_dbm)

    def _receive_data(self, frame: DataAmpdu, snr_db: np.ndarray) -> None:
        self._maybe_csi(frame, snr_db)
        addressed = frame.ra in self.addresses
        if not addressed:
            return
        if not self.accept_data_from(frame.ta):
            return
        if self._draw.random() >= preamble_success_probability(snr_db):
            return
        # One RNG call for the whole aggregate: ``random(n)`` yields the
        # same value stream as n successive ``random()`` calls, and the
        # success probabilities involve no randomness, so drawing up
        # front is bit-identical to the old per-MPDU interleaving.
        mpdus = frame.mpdus
        draws = self._draw.random(len(mpdus))
        decoded: List = []
        # The success probability depends only on the MPDU length, and
        # aggregates are overwhelmingly uniform-size — evaluate once
        # per distinct length instead of once per subframe.
        p_by_size: Dict[int, float] = {}
        for i, mpdu in enumerate(mpdus):
            p = p_by_size.get(mpdu.size_bytes)
            if p is None:
                p = mpdu_payload_success_probability(
                    snr_db, frame.mcs, mpdu.size_bytes
                )
                p_by_size[mpdu.size_bytes] = p
            if draws[i] < p:
                decoded.append(mpdu)
        reorder = self.reorder_buffer(frame.ta)
        for packet in reorder.advance_to(frame.window_start):
            self.on_packet(packet, frame.ta)
        for mpdu in decoded:
            for packet in reorder.receive(mpdu.seq, mpdu.packet):
                self.on_packet(packet, frame.ta)
        reorder.forget_old_history()
        ack_set = reorder.ack_set(frame.seqs())
        if not decoded and not ack_set:
            # Nothing decoded now or previously: no MAC header was ever
            # parsed, so the receiver does not know the aggregate was
            # addressed to it — it cannot respond. (This also keeps a
            # weak overhearing AP from stealing the response slot from
            # the AP that actually decoded the frame.)
            return
        ba = BlockAckFrame(
            tx_device=self.node_id,
            ta=self.ta_address,
            ra=frame.ta,
            start_seq=frame.window_start,
            acked=frozenset(ack_set),
            resp_to=frame.frame_id,
        )
        jitter = (
            int(self._draw.integers(0, self.response_jitter_us + 1))
            if self.response_jitter_us
            else 0
        )
        self._medium.transmit_response(ba, delay_us=SIFS_US + jitter)
        self.last_tx_us = self._sim.now
        self.stats["ba_sent"] += 1

    def _receive_block_ack(self, frame: BlockAckFrame, snr_db: np.ndarray) -> None:
        self._maybe_csi(frame, snr_db)
        if frame.ra not in self.addresses:
            return
        if self._draw.random() >= preamble_success_probability(snr_db):
            return
        session = self._sessions.get(frame.ta)
        if (
            session is None
            or session.awaiting is None
            or session.awaiting.frame_id != frame.resp_to
        ):
            # A BA answering an exchange we did not send: under WGTT's
            # shared BSSID this is another AP's acknowledgement — hand
            # it to the forwarding hook (paper §3.2.1).
            self.on_overheard_block_ack(frame)
            return
        pending = session.awaiting
        session.ba_timer.stop()
        session.awaiting = None
        self.stats["ba_received"] += 1
        self.on_ba_processed(frame)
        attempted = set(pending.seqs())
        acked_now = set(frame.acked) & attempted
        delivered, dropped = session.scoreboard.process_block_ack(set(frame.acked))
        session.rate.feedback(pending.mcs, len(attempted), len(acked_now))
        self.stats["mpdus_acked"] += len(delivered)
        self.stats["mpdus_dropped"] += len(dropped)
        if acked_now:
            self.dcf.notify_success()
            session.consecutive_failures = 0
        else:
            self.dcf.notify_failure()
            session.consecutive_failures += 1
        self._kick()

    def _receive_beacon(self, frame: BeaconFrame, snr_db: np.ndarray) -> None:
        if self._draw.random() >= preamble_success_probability(snr_db):
            return
        if self.on_beacon is not None:
            self.on_beacon(frame, NOISE_FLOOR_DBM + wideband_rssi_offset_db(snr_db))

    def _receive_mgmt(self, frame: MgmtFrame, snr_db: np.ndarray) -> None:
        self._maybe_csi(frame, snr_db)
        if frame.ra not in self.addresses:
            return
        p = mpdu_payload_success_probability(snr_db, BASIC_RATE, 120)
        if self._draw.random() >= p * preamble_success_probability(snr_db):
            return
        ack = AckFrame(tx_device=self.node_id, ta=self.ta_address, ra=frame.ta)
        self._medium.transmit_response(ack, delay_us=SIFS_US)
        self.on_mgmt(frame)

    def _receive_ack(self, frame: AckFrame, snr_db: np.ndarray) -> None:
        if frame.ra not in self.addresses:
            return
        if self._draw.random() >= preamble_success_probability(snr_db):
            return
        job = self._mgmt_inflight
        if job is None:
            return
        self._mgmt_inflight = None
        self._mgmt_timer.stop()
        self.dcf.notify_success()
        if job["on_result"] is not None:
            job["on_result"](True)
        self._kick()
