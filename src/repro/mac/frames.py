"""802.11 frame types and air-time arithmetic.

Timing constants follow 2.4 GHz 802.11n (ERP, short slot): SIFS 10 us,
slot 9 us, DIFS 28 us, HT-mixed preamble 36 us. Data rides in A-MPDU
aggregates acknowledged by block ACKs; control responses use legacy
OFDM preambles. Addresses are *logical* (WGTT's APs share one BSSID)
while ``tx_device`` names the physical transmitter, which is what the
channel model needs.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from typing import FrozenSet, List, Optional

from repro.net.packet import Packet
from repro.phy.mcs import BASIC_RATE, CONTROL_RATE, Mcs

# ----------------------------------------------------------------------
# IEEE 802.11 timing (2.4 GHz, short slot)
# ----------------------------------------------------------------------

SIFS_US = 10
SLOT_US = 9
DIFS_US = SIFS_US + 2 * SLOT_US  # 28 us
CW_MIN = 15
CW_MAX = 1023
#: HT-mixed-mode PLCP preamble + headers.
HT_PREAMBLE_US = 36
#: Legacy OFDM preamble (control/management frames).
LEGACY_PREAMBLE_US = 20

# ----------------------------------------------------------------------
# frame size bookkeeping
# ----------------------------------------------------------------------

#: 802.11 data MAC header + FCS.
MAC_OVERHEAD_BYTES = 30
#: A-MPDU subframe delimiter (+ implicit padding allowance).
AMPDU_DELIMITER_BYTES = 4
#: Compressed block ACK frame body.
BLOCK_ACK_BYTES = 32
#: Management frame nominal body (assoc/auth/reassoc).
MGMT_FRAME_BYTES = 120
#: Beacon frame with typical IEs.
BEACON_FRAME_BYTES = 220

#: Block-ACK window (compressed bitmap covers 64 MSDUs).
BA_WINDOW = 64
#: Aggregation limits: subframes per A-MPDU and PPDU airtime budget.
MAX_AMPDU_SUBFRAMES = 64
MAX_AMPDU_AIRTIME_US = 4_000
#: 12-bit MAC sequence-number space.
SEQ_MODULO = 4096

#: Per-MPDU transmit attempts before the MAC gives up on a subframe.
MPDU_RETRY_LIMIT = 10

_frame_ids = itertools.count(1)


@dataclass
class Mpdu:
    """One aggregated subframe: a packet plus MAC framing."""

    seq: int
    packet: Packet
    retries: int = 0

    @property
    def size_bytes(self) -> int:
        return self.packet.size_bytes + MAC_OVERHEAD_BYTES

    @property
    def wire_bytes(self) -> int:
        return self.size_bytes + AMPDU_DELIMITER_BYTES


@dataclass
class Frame:
    """Base class for everything that occupies the medium.

    ``tx_device`` is the physical radio (channel-model endpoint);
    ``ta`` / ``ra`` are the logical 802.11 addresses — under WGTT every
    AP transmits with the shared BSSID as its ``ta``.
    """

    tx_device: str
    ta: str
    ra: str
    frame_id: int = field(default_factory=lambda: next(_frame_ids), init=False)

    def duration_us(self) -> int:
        raise NotImplementedError

    @property
    def is_broadcast(self) -> bool:
        return self.ra == "*"


@dataclass
class DataAmpdu(Frame):
    """An aggregate of data MPDUs sent at one HT MCS."""

    mpdus: List[Mpdu] = field(default_factory=list)
    mcs: Optional[Mcs] = None
    #: Block-ACK window start the receiver should align to.
    window_start: int = 0

    def payload_bits(self) -> int:
        return 8 * sum(m.wire_bytes for m in self.mpdus)

    def duration_us(self) -> int:
        assert self.mcs is not None
        return HT_PREAMBLE_US + int(round(self.mcs.airtime_us(self.payload_bits())))

    def seqs(self) -> List[int]:
        return [m.seq for m in self.mpdus]


@dataclass
class BlockAckFrame(Frame):
    """Compressed block ACK: start sequence + 64-bit bitmap.

    ``resp_to`` carries the frame-id of the aggregate being answered.
    A real BA has no such field — the sender correlates by timing
    (SIFS). The simulator makes that correlation explicit; forwarded
    BA *information* (paper §3.2.1) never uses it, only the bitmap.
    """

    start_seq: int = 0
    acked: FrozenSet[int] = frozenset()
    resp_to: int = -1

    def duration_us(self) -> int:
        return LEGACY_PREAMBLE_US + int(
            round(CONTROL_RATE.airtime_us(8 * BLOCK_ACK_BYTES))
        )


@dataclass
class BeaconFrame(Frame):
    """Periodic AP beacon at the most robust basic rate."""

    def duration_us(self) -> int:
        return LEGACY_PREAMBLE_US + int(
            round(BASIC_RATE.airtime_us(8 * BEACON_FRAME_BYTES))
        )


@dataclass
class MgmtFrame(Frame):
    """Authentication / (re)association exchange frames."""

    subtype: str = "assoc-req"
    payload: dict = field(default_factory=dict)

    def duration_us(self) -> int:
        return LEGACY_PREAMBLE_US + int(
            round(BASIC_RATE.airtime_us(8 * MGMT_FRAME_BYTES))
        )


@dataclass
class AckFrame(Frame):
    """Legacy ACK, used to acknowledge management frames."""

    def duration_us(self) -> int:
        return LEGACY_PREAMBLE_US + int(round(CONTROL_RATE.airtime_us(8 * 14)))


def seq_distance(from_seq: int, to_seq: int) -> int:
    """Forward distance in 12-bit sequence space (0..4095)."""
    return (to_seq - from_seq) % SEQ_MODULO


def seq_in_window(seq: int, window_start: int) -> bool:
    """Whether ``seq`` falls inside [window_start, window_start+BA_WINDOW)."""
    return seq_distance(window_start, seq) < BA_WINDOW
