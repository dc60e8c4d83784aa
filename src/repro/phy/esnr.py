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
and never imports scipy.  The closed form survives as
:func:`effective_snr_db_exact`: it needs scipy (a development
dependency), and it is the reference the equivalence property tests
(``tests/test_perf_equivalence.py``) hold the tables to, within
0.05 dB across the 0–45 dB operating range.
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
from repro.phy.lut import lut_for

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
    result bitwise below the cap.  A run's hot path calls the memoised
    twins in :mod:`repro.phy.per`, which compute the same value.
    """
    lut = lut_for(modulation)
    ber = lut.ber_of_db_batch(subcarrier_snr_db)
    mean = float(_reduce(ber)) / ber.shape[0]
    esnr_db = lut.snr_db_for_ber(mean)
    return esnr_db if esnr_db < ESNR_CAP_DB else ESNR_CAP_DB


# ----------------------------------------------------------------------
# closed-form reference implementation (test oracle; needs scipy)
# ----------------------------------------------------------------------


def effective_snr_db_exact(
    subcarrier_snr_db: np.ndarray, modulation: str = DEFAULT_MODULATION
) -> float:
    """Closed-form effective SNR in dB, capped at :data:`ESNR_CAP_DB`.

    The oracle for the table-driven :func:`effective_snr_db`, never
    called by a run: ``tests/test_perf_equivalence.py::TestLutEquivalence``
    and ``tests/test_phy_batch.py::TestBatchAgainstExactOracles`` hold
    the fast paths to it within a stated tolerance."""
    ber = BER_BY_MODULATION[modulation]
    inverse = SNR_FOR_BER_BY_MODULATION[modulation]
    snr_linear = db_to_linear(np.asarray(subcarrier_snr_db, dtype=float))
    mean = float(np.mean(ber(snr_linear)))
    mean = min(max(mean, BER_FLOOR), BER_CEILING)
    esnr_db = float(linear_to_db(float(inverse(mean))))
    return min(esnr_db, ESNR_CAP_DB)
