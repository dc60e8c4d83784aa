"""Small-scale frequency-selective fading.

Each AP↔client link carries a tapped-delay-line Rayleigh channel: a
handful of taps with an exponential power-delay profile (the paper
notes WGTT's small cells keep delay spread indoor-like, well within the
standard cyclic prefix). Every tap is a complex Gauss-Markov (AR(1))
process whose correlation over a lag ``dt`` is ``exp(-dt / tau)``;
``tau`` is tied to the Doppler frequency ``v / lambda`` so that the
coherence time lands in the 2–3 ms range the paper quotes for vehicular
speeds at 2.4 GHz. The 56 OFDM subcarrier gains (HT20: 52 data + 4
pilot subcarriers) are the DFT of the taps, which is exactly the CSI a
commodity Atheros NIC reports.

Evolution is lazy: the channel state advances only when sampled, in a
single exact AR(1) step per tap, so idle links cost nothing.
"""

from __future__ import annotations

import math
from typing import Optional

import numpy as np

from repro.sim.engine import SECOND

#: Number of OFDM subcarriers the Atheros CSI tool reports for HT20.
NUM_SUBCARRIERS = 56
#: FFT length for a 20 MHz 802.11n channel.
FFT_SIZE = 64
#: Sample period of a 20 MHz channel (50 ns) — tap spacing.
TAP_SPACING_S = 50e-9
#: Taps in the delay line; 6 gives visibly frequency-selective CSI.
NUM_TAPS = 6
#: Exponential power-delay-profile decay constant, in tap spacings.
DELAY_SPREAD_TAPS = 1.5
#: Coherence time as a fraction of the Doppler period: 0.25 puts it at
#: ~2.8 ms for 15 mph at 2.4 GHz, within the 2–3 ms band the paper
#: cites from Tse & Viswanath.
COHERENCE_FACTOR = 0.25
#: The Doppler of a static scene (Hz): people and traffic around a
#: parked client keep its channel moving.
DOPPLER_FLOOR_HZ = 2.0

# What follows depends only on the constants above, so every channel
# (O(APs x clients) of them) shares one copy; all users treat these
# arrays as frozen.
_tap_profile = np.exp(-np.arange(NUM_TAPS) / DELAY_SPREAD_TAPS)
#: Per-quadrature scale of each tap's complex Gaussian (the tap powers
#: sum to one).
SCATTER_SCALE = np.sqrt(_tap_profile / _tap_profile.sum() / 2.0)
#: The 56 occupied HT20 subcarrier indices (-28..28, no DC).
_SUBCARRIERS = np.array([k for k in range(-28, 29) if k != 0])
#: Taps -> subcarrier-gains DFT matrix, ``(56, NUM_TAPS)``.
DFT = np.exp(
    -2j * np.pi * (_SUBCARRIERS[:, None] * np.arange(NUM_TAPS)[None, :])
    / FFT_SIZE
)


def doppler_hz(speed_mps: float, wavelength_m: float) -> float:
    """Maximum Doppler shift, floored for static scenes.

    Even a parked client sees a slowly varying channel (people, other
    traffic), so the Doppler never falls below :data:`DOPPLER_FLOOR_HZ`.
    """
    return max(speed_mps / wavelength_m, DOPPLER_FLOOR_HZ)


def coherence_time_us(doppler: float) -> float:
    """Coherence time in microseconds for a given Doppler frequency."""
    return COHERENCE_FACTOR / doppler * SECOND


class TappedRayleighChannel:
    """A lazily-evolving Rayleigh channel of :data:`NUM_TAPS` taps.

    ``rng`` is the link's private random stream.  No line-of-sight
    component: the paper's street shows deep fast fades.
    """

    def __init__(self, rng: np.random.Generator):
        self._rng = rng
        self._taps = self._draw_stationary()
        self._last_time_us: Optional[int] = None

    def _draw_stationary(self) -> np.ndarray:
        real = self._rng.standard_normal(NUM_TAPS)
        imag = self._rng.standard_normal(NUM_TAPS)
        return (real + 1j * imag) * SCATTER_SCALE

    def evolve_to(self, time_us: int, coherence_us: float) -> None:
        """Advance the AR(1) tap processes to ``time_us``.

        ``coherence_us`` may change between calls (the client speeds up
        or slows down); the step uses the value in force now.
        """
        if self._last_time_us is None:
            self._last_time_us = time_us
            return
        dt = time_us - self._last_time_us
        if dt <= 0:
            return
        rho = math.exp(-dt / coherence_us)
        n = NUM_TAPS
        # One RNG call for both quadratures: standard_normal(2n) yields
        # the same stream of values as two standard_normal(n) calls, so
        # seeded runs are unchanged.
        draws = self._rng.standard_normal(2 * n)
        innovation = (draws[:n] + 1j * draws[n:]) * SCATTER_SCALE
        self._taps = rho * self._taps + math.sqrt(1.0 - rho * rho) * innovation
        self._last_time_us = time_us

    def power_at(self, time_us: int, coherence_us: float) -> np.ndarray:
        """Fused evolve + per-subcarrier power in one step.

        Equivalent to ``evolve_to`` followed by ``subcarrier_power``
        (same RNG draws, same state updates) but avoids the complex
        conjugate-multiply temporary — this is the per-frame path.
        """
        self.evolve_to(time_us, coherence_us)
        return subcarrier_power_from_taps(self._taps)

    def peek_power_at(self, time_us: int, coherence_us: float) -> np.ndarray:
        """Subcarrier power at ``time_us`` *without* perturbing the
        process: state and RNG are restored afterwards, so oracle
        metrics can probe the channel without changing the run."""
        saved_taps = self._taps.copy()
        saved_time = self._last_time_us
        saved_rng_state = self._rng.bit_generator.state
        try:
            return self.power_at(time_us, coherence_us)
        finally:
            self._taps = saved_taps
            self._last_time_us = saved_time
            self._rng.bit_generator.state = saved_rng_state

    def subcarrier_gains(self) -> np.ndarray:
        """Complex gain on each of the 56 subcarriers (unit mean power)."""
        return np.add.reduce(DFT * self._taps, axis=-1)

    def subcarrier_power(self) -> np.ndarray:
        """|h_k|^2 per subcarrier — multiplies the mean link SNR."""
        return subcarrier_power_from_taps(self._taps)


def subcarrier_power_from_taps(taps: np.ndarray) -> np.ndarray:
    """|DFT · taps|² via broadcast-multiply + ``add.reduce``.

    This formulation — *not* ``dft @ taps`` — is shared by the scalar
    per-link path and the fused multi-link path in
    :mod:`repro.channel.link_batch`: numpy's matmul routes 1-D and 2-D
    operands to different BLAS kernels (gemv vs gemm) whose summation
    orders differ in the last ulp, while an elementwise multiply
    followed by ``add.reduce(axis=-1)`` produces identical bits whether
    ``taps`` is one tap vector ``(T,)`` or a stack ``(L, 1, T)``.  That
    shared ordering is what makes batched fading evolution bit-identical
    to sequential :meth:`TappedRayleighChannel.evolve_to` calls.
    """
    gains = np.add.reduce(DFT * taps, axis=-1)
    re = gains.real
    im = gains.imag
    return re * re + im * im
