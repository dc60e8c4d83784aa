"""Tests for the PHY models: BER curves, effective SNR, PER."""

import numpy as np
import pytest

from repro.phy.ber import (
    ber_16qam,
    ber_64qam,
    ber_bpsk,
    ber_qpsk,
    db_to_linear,
    linear_to_db,
    q_function,
    q_inverse,
    snr_for_ber_16qam,
    snr_for_ber_64qam,
    snr_for_ber_bpsk,
    snr_for_ber_qpsk,
)
from repro.phy.esnr import ESNR_CAP_DB, effective_snr_db
from repro.phy.mcs import (
    BASIC_RATE,
    CONTROL_RATE,
    MCS_TABLE,
    mcs_by_index,
)
from repro.phy.per import (
    best_rate_bps,
    coded_ber,
    mpdu_payload_success_probability,
    preamble_success_probability,
)


def delivery_probability(snr, mcs, length_bytes):
    """One MPDU's complete delivery probability: the preamble term times
    the payload term, the product :func:`best_rate_bps` maximizes."""
    return preamble_success_probability(snr) * mpdu_payload_success_probability(
        snr, mcs, length_bytes
    )


def test_q_function_known_values():
    assert q_function(0.0) == pytest.approx(0.5)
    assert q_function(1.96) == pytest.approx(0.025, abs=2e-3)


def test_q_inverse_roundtrip():
    for p in [0.4, 0.1, 1e-3, 1e-6]:
        assert q_function(q_inverse(p)) == pytest.approx(p, rel=1e-6)


def test_db_linear_roundtrip():
    assert linear_to_db(db_to_linear(17.0)) == pytest.approx(17.0)
    assert db_to_linear(0.0) == pytest.approx(1.0)


@pytest.mark.parametrize(
    "ber,inverse,snr_points_db",
    [
        # Points chosen inside each curve's invertible range (above the
        # 1e-15 BER floor where inversion saturates by design).
        (ber_bpsk, snr_for_ber_bpsk, [1.0, 6.0, 10.0]),
        (ber_qpsk, snr_for_ber_qpsk, [3.0, 8.0, 13.0]),
        (ber_16qam, snr_for_ber_16qam, [5.0, 12.0, 18.0]),
        (ber_64qam, snr_for_ber_64qam, [8.0, 16.0, 24.0]),
    ],
)
def test_ber_inversion_roundtrip(ber, inverse, snr_points_db):
    for snr_db in snr_points_db:
        snr = db_to_linear(snr_db)
        assert inverse(ber(snr)) == pytest.approx(snr, rel=1e-6)


def test_ber_ordering_by_modulation():
    # At equal SNR, denser constellations always have higher BER.
    snr = db_to_linear(12.0)
    assert ber_bpsk(snr) < ber_qpsk(snr) < ber_16qam(snr) < ber_64qam(snr)


def test_ber_monotone_decreasing_in_snr():
    snrs = db_to_linear(np.linspace(-5, 30, 50))
    for ber in (ber_bpsk, ber_qpsk, ber_16qam, ber_64qam):
        values = ber(snrs)
        assert np.all(np.diff(values) <= 1e-18)


class TestMcsTable:
    def test_eight_entries_monotone_rates(self):
        assert len(MCS_TABLE) == 8
        rates = [m.data_rate_bps for m in MCS_TABLE]
        assert rates == sorted(rates)

    def test_top_rate_is_722(self):
        assert MCS_TABLE[-1].data_rate_bps == 72_200_000

    def test_lookup_and_bounds(self):
        assert mcs_by_index(3).modulation == "16qam"
        with pytest.raises(ValueError):
            mcs_by_index(8)
        with pytest.raises(ValueError):
            mcs_by_index(-1)

    def test_airtime(self):
        mcs = mcs_by_index(7)
        assert mcs.airtime_us(72_200_000) == pytest.approx(1e6)

    def test_control_and_basic_rates(self):
        assert CONTROL_RATE.data_rate_bps == 24_000_000
        assert BASIC_RATE.data_rate_bps == 6_000_000


class TestEffectiveSnr:
    def test_flat_channel_esnr_equals_snr(self):
        flat = np.full(56, 15.0)
        assert effective_snr_db(flat) == pytest.approx(15.0, abs=0.1)

    def test_esnr_below_mean_for_selective_channel(self):
        # One deep-faded subcarrier drags ESNR below the dB mean: that
        # is precisely why ESNR beats RSSI for delivery prediction.
        snrs = np.full(56, 20.0)
        snrs[7] = -5.0
        assert effective_snr_db(snrs) < 20.0

    def test_esnr_monotone_in_uniform_shift(self):
        base = np.linspace(5, 20, 56)
        assert effective_snr_db(base + 3.0) > effective_snr_db(base)

    def test_esnr_saturates_at_high_snr(self):
        # The BER floor makes the metric saturate (~31 dB for 64-QAM):
        # links that are "more than good enough" rank equal, which is
        # fine — every MCS already succeeds there.
        high = effective_snr_db(np.full(56, 80.0))
        higher = effective_snr_db(np.full(56, 90.0))
        assert high == pytest.approx(higher)
        assert 28.0 < high <= ESNR_CAP_DB

    def test_esnr_handles_very_low_snr(self):
        value = effective_snr_db(np.full(56, -20.0))
        assert value < 0.0
        assert np.isfinite(value)


class TestPer:
    def test_success_monotone_in_snr(self):
        mcs = mcs_by_index(4)
        p_low = delivery_probability(np.full(56, 8.0), mcs, 1500)
        p_high = delivery_probability(np.full(56, 25.0), mcs, 1500)
        assert p_low < p_high
        assert 0.0 <= p_low <= 1.0
        assert 0.0 <= p_high <= 1.0

    def test_longer_frames_fail_more(self):
        mcs = mcs_by_index(4)
        snr = np.full(56, 14.0)
        assert delivery_probability(
            snr, mcs, 200
        ) > delivery_probability(snr, mcs, 1500)

    def test_higher_mcs_needs_more_snr(self):
        snr = np.full(56, 10.0)
        p0 = delivery_probability(snr, mcs_by_index(0), 1500)
        p7 = delivery_probability(snr, mcs_by_index(7), 1500)
        assert p0 > 0.95
        assert p7 < 0.05

    def test_preamble_fails_below_floor(self):
        assert preamble_success_probability(np.full(56, -10.0)) == 0.0
        assert preamble_success_probability(np.full(56, 15.0)) > 0.99

    def test_coded_ber_in_unit_range(self):
        for snr_db in [-5.0, 5.0, 15.0, 30.0]:
            for mcs in MCS_TABLE:
                value = coded_ber(np.full(56, snr_db), mcs)
                assert 0.0 <= value <= 0.5 + 1e-9

    def test_expected_throughput_peaks_at_right_mcs(self):
        # At 12 dB flat SNR the best expected throughput should come
        # from a mid-table MCS, not the extremes.
        snr = np.full(56, 12.0)
        rates = [m.data_rate_bps * delivery_probability(snr, m, 1500) for m in MCS_TABLE]
        best = int(np.argmax(rates))
        assert 1 <= best <= 5
        assert best_rate_bps(snr) == pytest.approx(rates[best])

    def test_best_rate_saturates_at_top_mcs(self):
        assert best_rate_bps(np.full(56, 35.0)) == pytest.approx(
            72_200_000, rel=0.01
        )

    def test_best_rate_zero_when_unreachable(self):
        assert best_rate_bps(np.full(56, -10.0)) == 0.0
