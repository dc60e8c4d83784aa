"""802.11n MCS table (HT20, one spatial stream, short guard interval).

The testbed APs feed a single directional antenna through a splitter,
so exactly one spatial stream is available (paper §4.2, footnote 6).
On a 20 MHz channel with short GI that caps the PHY at 72.2 Mbit/s —
consistent with the ~70 Mbit/s 90th-percentile link rate in Figure 16.

Control responses (ACK / block ACK) and management frames use legacy
OFDM rates as real Atheros firmware does.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Tuple


@dataclass(frozen=True)
class Mcs:
    """One modulation-and-coding scheme."""

    index: int
    modulation: str
    coding_rate: float
    data_rate_bps: int

    def airtime_us(self, payload_bits: int) -> float:
        """Payload transmission time, excluding preamble."""
        return payload_bits / self.data_rate_bps * 1e6


#: HT20 / 1SS / short-GI rate set, MCS0–MCS7.
MCS_TABLE: Tuple[Mcs, ...] = (
    Mcs(0, "bpsk", 1 / 2, 7_200_000),
    Mcs(1, "qpsk", 1 / 2, 14_400_000),
    Mcs(2, "qpsk", 3 / 4, 21_700_000),
    Mcs(3, "16qam", 1 / 2, 28_900_000),
    Mcs(4, "16qam", 3 / 4, 43_300_000),
    Mcs(5, "64qam", 2 / 3, 57_800_000),
    Mcs(6, "64qam", 3 / 4, 65_000_000),
    Mcs(7, "64qam", 5 / 6, 72_200_000),
)

#: Legacy OFDM rate used for block ACKs and other control responses.
CONTROL_RATE = Mcs(-1, "16qam", 1 / 2, 24_000_000)
#: Most robust legacy rate, used for beacons and management frames.
BASIC_RATE = Mcs(-2, "bpsk", 1 / 2, 6_000_000)

#: Coding gain (dB) credited to the convolutional code at each rate,
#: applied to SNR before the uncoded-BER curves in :mod:`repro.phy.ber`.
CODING_GAIN_DB = {
    1 / 2: 5.5,
    2 / 3: 4.5,
    3 / 4: 4.0,
    5 / 6: 3.0,
}


def mcs_by_index(index: int) -> Mcs:
    """Look up a data MCS by its 802.11n index (0–7)."""
    if not 0 <= index < len(MCS_TABLE):
        raise ValueError(f"no such MCS index: {index}")
    return MCS_TABLE[index]
