"""Uncoded bit-error-rate curves for the 802.11 modulations.

These are the standard AWGN expressions used by Halperin et al.'s
Effective SNR work ("Predictable 802.11 packet delivery from wireless
channel measurements", SIGCOMM 2010), which WGTT builds on:

    BPSK    Q(sqrt(2 * snr))
    QPSK    Q(sqrt(snr))
    16-QAM  3/4 * Q(sqrt(snr / 5))
    64-QAM  7/12 * Q(sqrt(snr / 21))

All functions accept scalars or numpy arrays of *linear* SNR and are
invertible, which is what lets a mean-BER across subcarriers be mapped
back to a single AWGN-equivalent "effective" SNR.

The curves go through ``scipy.special``, imported inside
:func:`q_function` / :func:`q_inverse`: a simulation never calls them.
It reads the curves from the tables :mod:`repro.phy.lut` loads from its
committed data file; only the table generator
(:func:`repro.phy.lut.compute_tables`), the ``*_exact`` oracles in
:mod:`repro.phy.esnr` and the tests evaluate them, so scipy is a
development dependency.
"""

from __future__ import annotations

import numpy as np

#: BER is clipped into this range before inversion so that saturated
#: (underflowed) measurements stay finite and ordered.
BER_FLOOR = 1e-15
BER_CEILING = 0.5


def q_function(x):
    """Gaussian tail probability Q(x)."""
    from scipy.special import erfc

    return 0.5 * erfc(np.asarray(x, dtype=float) / np.sqrt(2.0))


def q_inverse(p):
    """Inverse of :func:`q_function`."""
    from scipy.special import erfcinv

    return np.sqrt(2.0) * erfcinv(2.0 * np.asarray(p, dtype=float))


def ber_bpsk(snr_linear):
    return q_function(np.sqrt(2.0 * np.maximum(snr_linear, 0.0)))


def ber_qpsk(snr_linear):
    return q_function(np.sqrt(np.maximum(snr_linear, 0.0)))


def ber_16qam(snr_linear):
    return 0.75 * q_function(np.sqrt(np.maximum(snr_linear, 0.0) / 5.0))


def ber_64qam(snr_linear):
    return (7.0 / 12.0) * q_function(np.sqrt(np.maximum(snr_linear, 0.0) / 21.0))


def snr_for_ber_bpsk(ber):
    return q_inverse(np.clip(ber, BER_FLOOR, BER_CEILING)) ** 2 / 2.0


def snr_for_ber_qpsk(ber):
    return q_inverse(np.clip(ber, BER_FLOOR, BER_CEILING)) ** 2


def snr_for_ber_16qam(ber):
    scaled = np.clip(np.asarray(ber, dtype=float) / 0.75, BER_FLOOR, BER_CEILING)
    return 5.0 * q_inverse(scaled) ** 2


def snr_for_ber_64qam(ber):
    scaled = np.clip(
        np.asarray(ber, dtype=float) * 12.0 / 7.0, BER_FLOOR, BER_CEILING
    )
    return 21.0 * q_inverse(scaled) ** 2


BER_BY_MODULATION = {
    "bpsk": ber_bpsk,
    "qpsk": ber_qpsk,
    "16qam": ber_16qam,
    "64qam": ber_64qam,
}

SNR_FOR_BER_BY_MODULATION = {
    "bpsk": snr_for_ber_bpsk,
    "qpsk": snr_for_ber_qpsk,
    "16qam": snr_for_ber_16qam,
    "64qam": snr_for_ber_64qam,
}


def db_to_linear(db):
    """Convert dB to a linear power ratio."""
    return np.power(10.0, np.asarray(db, dtype=float) / 10.0)


def linear_to_db(linear):
    """Convert a linear power ratio to dB (floored to avoid -inf)."""
    return 10.0 * np.log10(np.maximum(np.asarray(linear, dtype=float), 1e-30))
