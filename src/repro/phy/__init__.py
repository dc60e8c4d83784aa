"""802.11n PHY models: MCS table, BER curves, Effective SNR, PER."""

from repro.phy.ber import db_to_linear, linear_to_db
from repro.phy.esnr import effective_snr_db, effective_snr_db_exact
from repro.phy.mcs import (
    BASIC_RATE,
    CONTROL_RATE,
    MCS_TABLE,
    Mcs,
    mcs_by_index,
)
from repro.phy.per import best_rate_bps

__all__ = [
    "db_to_linear",
    "linear_to_db",
    "effective_snr_db",
    "effective_snr_db_exact",
    "BASIC_RATE",
    "CONTROL_RATE",
    "MCS_TABLE",
    "Mcs",
    "mcs_by_index",
    "best_rate_bps",
]
