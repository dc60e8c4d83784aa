"""Effective SNR (Halperin et al., SIGCOMM 2010).

A frequency-selective channel delivers a different SNR on every OFDM
subcarrier; a single wideband RSSI hides exactly the deep per-subcarrier
fades that kill packets. Effective SNR fixes this by going through the
bit-error domain:

1. map each subcarrier SNR to an uncoded BER for a reference modulation,
2. average the BERs across subcarriers,
3. map the mean BER back to the AWGN SNR that would produce it.

The result is "the SNR of the flat channel that would perform the same"
— the quantity WGTT's controller ranks APs by. We use 64-QAM as the
reference modulation: it keeps the metric sensitive across the whole
0–30 dB operating range of the picocell testbed.

Hot path: the public entry points are served by the lookup tables
:mod:`repro.phy.lut` loads from its committed data file (dense SNR-dB
grid + linear interpolation), so a run never evaluates the closed form
and never imports scipy.  The closed forms survive as ``*_exact``: they
need scipy (a development dependency), and they are the reference the
equivalence property tests (``tests/test_perf_equivalence.py``) hold
the tables to, within 0.05 dB across the 0–45 dB operating range.
"""

from __future__ import annotations

import numpy as np

from repro.phy.ber import (
    BER_BY_MODULATION,
    BER_CEILING,
    BER_FLOOR,
    SNR_FOR_BER_BY_MODULATION,
    db_to_linear,
    linear_to_db,
)
from repro.phy.lut import lut_for, mean_ber_lut

#: Reference modulation for the scalar ESNR summary metric.
DEFAULT_MODULATION = "64qam"
#: ESNR is capped here; beyond it every MCS succeeds anyway.
ESNR_CAP_DB = 45.0


def effective_snr_db(
    subcarrier_snr_db: np.ndarray,
    modulation: str = DEFAULT_MODULATION,
    _reduce=np.add.reduce,
) -> float:
    """Effective SNR in dB, capped at :data:`ESNR_CAP_DB` (LUT fast path).

    Both non-linear maps go through the shared uniform-grid gather
    kernel (:class:`repro.phy.lut.ModulationLut`), the same kernel the
    stacked evaluator (:func:`repro.phy.per.effective_snr_db_batch`)
    runs on whole link stacks — one row of a batch reproduces this
    result bitwise below the cap.  This is the single most frequently
    called function in the simulator.
    """
    lut = lut_for(modulation)
    ber = lut.ber_of_db_batch(subcarrier_snr_db)
    mean = float(_reduce(ber)) / ber.shape[0]
    esnr_db = lut.snr_db_for_ber(mean)
    return esnr_db if esnr_db < ESNR_CAP_DB else ESNR_CAP_DB


def mean_ber(
    subcarrier_snr_db: np.ndarray, modulation: str, coding_gain_db: float = 0.0
) -> float:
    """Mean coded BER across subcarriers for a given modulation.

    The convolutional code is credited as an SNR offset before the
    uncoded BER curve — the usual coding-gain approximation.
    (LUT fast path.)
    """
    return mean_ber_lut(subcarrier_snr_db, modulation, coding_gain_db)


# ----------------------------------------------------------------------
# closed-form reference implementations (test oracles; need scipy)
# ----------------------------------------------------------------------


def effective_snr_db_exact(
    subcarrier_snr_db: np.ndarray, modulation: str = DEFAULT_MODULATION
) -> float:
    """Closed-form effective SNR in dB, capped at :data:`ESNR_CAP_DB`."""
    ber = BER_BY_MODULATION[modulation]
    inverse = SNR_FOR_BER_BY_MODULATION[modulation]
    snr_linear = db_to_linear(np.asarray(subcarrier_snr_db, dtype=float))
    mean = float(np.mean(ber(snr_linear)))
    mean = min(max(mean, BER_FLOOR), BER_CEILING)
    esnr_db = float(linear_to_db(float(inverse(mean))))
    return min(esnr_db, ESNR_CAP_DB)


def mean_ber_exact(
    subcarrier_snr_db: np.ndarray, modulation: str, coding_gain_db: float = 0.0
) -> float:
    """Closed-form mean coded BER across subcarriers (test oracle)."""
    ber = BER_BY_MODULATION[modulation]
    snr_linear = db_to_linear(
        np.asarray(subcarrier_snr_db, dtype=float) + coding_gain_db
    )
    return float(np.mean(ber(snr_linear)))
