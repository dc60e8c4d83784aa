"""Packet-error model: from per-subcarrier SNR to delivery probability.

An MPDU of ``L`` bytes at a given MCS succeeds when all its coded bits
come through:  p = (1 - ber)^(8L), where ``ber`` is the mean coded BER
across subcarriers (modulation curve + coding-gain offset). This is the
Effective-SNR delivery model of Halperin et al., evaluated directly on
the subcarrier SNRs, and it is what gives WGTT's CSI-based AP selection
its predictive power: two links with equal RSSI but different
frequency-selective fades get very different delivery probabilities.

A decode also requires the PLCP preamble/header, sent at the most
robust rate, to be received; below a small SNR floor nothing decodes.

Hot path: all non-linear maps are served from the log-domain lookup
tables in :mod:`repro.phy.lut`, and two per-snapshot quantities
(effective SNR, preamble success) carry bounded *identity* memos.
``WifiDevice._receive_data`` evaluates the payload term once per
distinct MPDU size of an A-MPDU, not once per subframe, so nothing asks
twice for a coded BER or an RSSI (their memos never hit and are gone);
the hit that pays is the preamble's: when a transmission has two or more
live receivers the medium evaluates every receiver's preamble term in
one stacked call (:func:`prewarm_receivers`) and seeds that memo — and
only that one — so each receiver's :func:`preamble_success_probability`
is a dictionary hit.

Keys embed ``id()`` of the snapshot array; a strong reference to the
array is held in each entry, making ``id`` reuse impossible while the
entry lives.  The memos are LRU-bounded (:data:`PHY_MEMO_CAPACITY`) so
hour-long soak runs cannot grow them without limit, and
hit/miss/eviction counters are exported through :func:`phy_memo_stats`
(published to the ``MetricsRegistry`` by :func:`collect_metrics`).  SNR
arrays are treated as immutable throughout the simulator — derived
quantities always allocate fresh arrays.
"""

from __future__ import annotations

import math
from collections import OrderedDict
from typing import Any, Dict, Sequence, Tuple

import numpy as np

from repro.obs.metrics import metric_key
from repro.phy.esnr import DEFAULT_MODULATION, ESNR_CAP_DB
from repro.phy.lut import ber_at_snr_db_lut, lut_for
from repro.phy.mcs import CODING_GAIN_DB, Mcs

#: Below this wideband SNR (dB) the preamble itself is undetectable.
PREAMBLE_SNR_FLOOR_DB = -1.0
#: Preamble length in bits at the 6 Mbit/s base rate (for its own BER check).
_PREAMBLE_BITS = 192

#: Entry cap for each identity memo below.  A snapshot batch touches at
#: most ~#receivers × #modulations entries, so 128 comfortably covers a
#: full medium completion plus the controller's follow-up reads while
#: keeping worst-case growth bounded for soak runs.
PHY_MEMO_CAPACITY = 128


class _IdentityLru:
    """Bounded identity-keyed memo with hit/miss/eviction counters.

    Keys embed ``id()`` of a live array; each entry holds a strong
    reference to that array (and any other identity-keyed operand), so
    a key collision with a *different* object is impossible — CPython
    cannot recycle the id of an object the entry keeps alive.
    """

    __slots__ = ("hits", "misses", "evictions", "_data")

    def __init__(self):
        self.hits = 0
        self.misses = 0
        self.evictions = 0
        self._data: "OrderedDict[Any, Tuple[Any, ...]]" = OrderedDict()

    def get(self, key: Any) -> Any:
        entry = self._data.get(key)
        if entry is None:
            self.misses += 1
            return None
        self.hits += 1
        self._data.move_to_end(key)
        return entry

    def put(self, key: Any, entry: Tuple[Any, ...]) -> None:
        data = self._data
        if key in data:
            data[key] = entry
            data.move_to_end(key)
            return
        if len(data) >= PHY_MEMO_CAPACITY:
            data.popitem(last=False)
            self.evictions += 1
        data[key] = entry  # fresh keys insert at the recent end already

    def clear(self) -> None:
        self._data.clear()

    def stats(self) -> Dict[str, int]:
        return {
            "size": len(self._data),
            "capacity": PHY_MEMO_CAPACITY,
            "hits": self.hits,
            "misses": self.misses,
            "evictions": self.evictions,
        }


#: value: (snr_array, esnr_db) keyed by (id(array), modulation)
_esnr_memo = _IdentityLru()
#: value: (snr_array, p_preamble) keyed by id(array)
_preamble_memo_lru = _IdentityLru()


def phy_memo_stats() -> Dict[str, Dict[str, int]]:
    """Counters for the bounded PHY memos (for the obs collectors)."""
    return {
        "esnr": _esnr_memo.stats(),
        "preamble": _preamble_memo_lru.stats(),
    }


def collect_metrics() -> Dict[str, object]:
    """The memo counters as ``phy_memo{memo=...,stat=...}`` keys."""
    return {
        metric_key("phy_memo", memo=memo, stat=stat): value
        for memo, stats in phy_memo_stats().items()
        for stat, value in stats.items()
    }


def reset_phy_memos() -> None:
    """Drop all memo entries (counters survive; tests use this)."""
    _esnr_memo.clear()
    _preamble_memo_lru.clear()


def reset_phy_memo_stats() -> None:
    """Zero the hit/miss/eviction counters (entries untouched).

    The soak harness calls this alongside :func:`reset_phy_memos` so
    that two same-seed runs in one process stream byte-identical
    telemetry — the counters are process-lifetime by default and would
    otherwise carry the first run's totals into the second.
    """
    for memo in (_esnr_memo, _preamble_memo_lru):
        memo.hits = 0
        memo.misses = 0
        memo.evictions = 0


def wideband_rssi_offset_db(subcarrier_snr_db: np.ndarray) -> float:
    """Wideband fading+SNR offset over the noise floor, in dB.

    ``NOISE_FLOOR_DBM + offset`` is the instantaneous RSSI a receiver
    reports for this snapshot (CSI reports, beacon RSSI).
    """
    powers = 10.0 ** (np.asarray(subcarrier_snr_db) / 10.0)
    linear = float(np.add.reduce(powers)) / powers.shape[0]
    return 10.0 * math.log10(max(linear, 1e-12))


def _effective_snr_db_memo(subcarrier_snr_db: np.ndarray, modulation: str) -> float:
    """Uncapped LUT effective SNR with a bounded identity memo."""
    key = (id(subcarrier_snr_db), modulation)
    entry = _esnr_memo.get(key)
    if entry is not None:
        return entry[1]
    lut = lut_for(modulation)
    ber = lut.ber_of_db_batch(subcarrier_snr_db)
    mean = float(np.add.reduce(ber)) / ber.shape[0]
    esnr_db = lut.snr_db_for_ber(mean)
    if isinstance(subcarrier_snr_db, np.ndarray):
        _esnr_memo.put(key, (subcarrier_snr_db, esnr_db))
    return esnr_db


def effective_snr_db_memoized(subcarrier_snr_db: np.ndarray) -> float:
    """Capped reference-modulation (:data:`DEFAULT_MODULATION`) effective
    SNR served through the bounded identity memo.

    Bit-identical to :func:`repro.phy.esnr.effective_snr_db` (same
    kernels, same cap ternary); the CSI path uses this entry point so a
    snapshot whose reference-modulation ESNR is already in the memo
    resolves without recomputing the LUT collapse.
    """
    esnr_db = _effective_snr_db_memo(subcarrier_snr_db, DEFAULT_MODULATION)
    return esnr_db if esnr_db < ESNR_CAP_DB else ESNR_CAP_DB


def coded_ber(subcarrier_snr_db: np.ndarray, mcs: Mcs) -> float:
    """Post-FEC BER for this MCS on a frequency-selective channel.

    Per Halperin et al.: collapse the subcarrier SNRs to the effective
    SNR for this MCS's *modulation* (uncoded mean-BER inversion), then
    evaluate the coded link at that single AWGN-equivalent point. The
    convolutional code and interleaver operate across the whole band,
    so coding is credited after the collapse, not per subcarrier.
    """
    gain_db = CODING_GAIN_DB[mcs.coding_rate]
    esnr_db = _effective_snr_db_memo(subcarrier_snr_db, mcs.modulation)
    return ber_at_snr_db_lut(mcs.modulation, esnr_db + gain_db)


def preamble_success_probability(subcarrier_snr_db: np.ndarray) -> float:
    """Probability the PLCP preamble + header decode (BPSK 1/2)."""
    entry = _preamble_memo_lru.get(id(subcarrier_snr_db))
    if entry is not None:
        return entry[1]
    arr = np.asarray(subcarrier_snr_db, dtype=float)
    linear = np.power(10.0, arr * 0.1)
    # add.reduce/n is what np.mean computes, minus the dispatch layer.
    wideband_linear = float(np.add.reduce(linear)) / linear.shape[0]
    wideband_db = 10.0 * math.log10(max(wideband_linear, 1e-12))
    if wideband_db < PREAMBLE_SNR_FLOOR_DB:
        value = 0.0
    else:
        esnr_db = _effective_snr_db_memo(subcarrier_snr_db, "bpsk")
        ber = ber_at_snr_db_lut("bpsk", esnr_db + CODING_GAIN_DB[1 / 2])
        value = (1.0 - ber) ** _PREAMBLE_BITS
    if isinstance(subcarrier_snr_db, np.ndarray):
        _preamble_memo_lru.put(
            id(subcarrier_snr_db), (subcarrier_snr_db, value)
        )
    return value


# ----------------------------------------------------------------------
# stacked twins: every live receiver of one completed transmission
# ----------------------------------------------------------------------
#
# Bit-identical, row for row, to the scalar functions above: the heavy
# elementwise stages (grid gather, ``log10``, ``power``,
# ``add.reduce(axis=-1)``) produce the same bits on a 2-D stack as on
# each 1-D row, and the per-row finishing runs the same scalar ops
# (``tests/test_phy_batch.py`` sweeps 1-256 rows with NaN/±inf inputs).


def _as_matrix(subcarrier_snr_db) -> np.ndarray:
    matrix = np.asarray(subcarrier_snr_db, dtype=float)
    if matrix.ndim == 1:
        matrix = matrix[None, :]
    return matrix


def effective_snr_db_batch(
    subcarrier_snr_db, modulation: str = DEFAULT_MODULATION
) -> np.ndarray:
    """Uncapped effective SNR (dB) of each row of a
    ``(n_links, n_subcarriers)`` stack — row-wise
    :func:`_effective_snr_db_memo`."""
    matrix = _as_matrix(subcarrier_snr_db)
    lut = lut_for(modulation)
    ber = lut.ber_of_db_batch(matrix)
    mean = np.add.reduce(ber, axis=-1) / matrix.shape[-1]
    return lut.snr_db_for_ber_batch(mean)


def preamble_success_batch(subcarrier_snr_db) -> np.ndarray:
    """Row-wise :func:`preamble_success_probability`.

    The BPSK effective SNR is evaluated for every row (the scalar path
    skips it below the wideband floor, but computing it never changes a
    value).
    """
    matrix = _as_matrix(subcarrier_snr_db)
    linear = np.power(10.0, matrix * 0.1)
    wideband = np.add.reduce(linear, axis=-1) / matrix.shape[-1]
    esnr = effective_snr_db_batch(matrix, "bpsk")
    # ``esnr + gain`` is the same IEEE add the scalar path does.
    bers = lut_for("bpsk").ber_of_db_batch(esnr + CODING_GAIN_DB[1 / 2])
    out = np.empty(len(wideband))
    for i in range(len(wideband)):
        wideband_db = 10.0 * math.log10(max(float(wideband[i]), 1e-12))
        if wideband_db < PREAMBLE_SNR_FLOOR_DB:
            out[i] = 0.0
        else:
            # scalar ``**`` finishing — same op the scalar path runs
            out[i] = (1.0 - float(bers[i])) ** _PREAMBLE_BITS
    return out


def prewarm_receivers(rows: Sequence[np.ndarray]) -> None:
    """Evaluate the preamble term of one completed transmission's live
    receivers in one stacked call and seed the preamble memo.

    ``rows`` are the *final* per-receiver snapshot arrays — the exact
    objects the MAC will hand to ``device.on_air_frame`` (interference
    penalties already applied) — because the memo keys on object
    identity.  Only the preamble: it is the one PHY term every receiver
    evaluates unconditionally; the data / CSI terms behind the
    per-device preamble draw measured cheaper left to the lazy scalar
    path (docs/performance.md).
    """
    matrix = np.empty((len(rows), rows[0].shape[0]))
    for i, row in enumerate(rows):
        matrix[i] = row
    preamble = preamble_success_batch(matrix)
    for i, row in enumerate(rows):
        _preamble_memo_lru.put(id(row), (row, float(preamble[i])))


def mpdu_payload_success_probability(
    subcarrier_snr_db: np.ndarray, mcs: Mcs, length_bytes: int
) -> float:
    """Payload-only success term (preamble handled separately)."""
    ber = coded_ber(subcarrier_snr_db, mcs)
    if ber >= 1.0:
        return 0.0
    bits = 8 * int(length_bytes)
    # log-domain to survive long frames at moderate BER
    return math.exp(bits * math.log1p(-min(ber, 0.999999)))


def best_rate_bps(subcarrier_snr_db: np.ndarray, length_bytes: int = 1500) -> float:
    """Delivery-probability-weighted PHY rate of the best MCS; the link
    'capacity' metric.

    The capacity-loss analyses (Figures 4 and 21) take the best AP at
    an instant to be the one maximizing this quantity: the preamble
    term times, maximized over the MCS table, the data rate times
    :func:`mpdu_payload_success_probability`.
    """
    from repro.phy.mcs import MCS_TABLE

    preamble = preamble_success_probability(subcarrier_snr_db)
    if preamble == 0.0:
        return 0.0
    return preamble * max(
        mcs.data_rate_bps
        * mpdu_payload_success_probability(subcarrier_snr_db, mcs, length_bytes)
        for mcs in MCS_TABLE
    )
