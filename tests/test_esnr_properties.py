"""Additional property-based tests: the Effective-SNR metric and the
PER model under hypothesis-generated frequency-selective channels."""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.phy.esnr import effective_snr_db
from repro.phy.mcs import MCS_TABLE
from repro.phy.per import (
    best_rate_bps,
    mpdu_payload_success_probability,
    preamble_success_probability,
)

def delivery_probability(snrs, mcs, length_bytes):
    """Preamble term times payload term: one MPDU's delivery odds."""
    return preamble_success_probability(snrs) * mpdu_payload_success_probability(
        snrs, mcs, length_bytes
    )


snr_vectors = st.lists(
    st.floats(min_value=-15.0, max_value=40.0, allow_nan=False),
    min_size=56,
    max_size=56,
).map(np.array)


@given(snr_vectors)
@settings(max_examples=60)
def test_esnr_flat_channel_fixed_point(snrs):
    """ESNR of a flat channel equals the flat value (within the
    metric's saturation zone)."""
    flat = np.full(56, float(np.median(snrs)))
    if -5.0 <= flat[0] <= 25.0:
        assert abs(effective_snr_db(flat) - flat[0]) < 0.2


@given(snr_vectors, st.floats(min_value=0.1, max_value=10.0))
@settings(max_examples=60)
def test_esnr_monotone_under_uniform_boost(snrs, boost):
    before = effective_snr_db(snrs)
    after = effective_snr_db(snrs + boost)
    assert after >= before - 1e-6


@given(snr_vectors)
@settings(max_examples=60)
def test_per_probabilities_valid_for_all_mcs(snrs):
    for mcs in MCS_TABLE:
        p = delivery_probability(snrs, mcs, 1500)
        assert 0.0 <= p <= 1.0


@given(snr_vectors)
@settings(max_examples=60)
def test_per_ordering_lower_mcs_never_worse(snrs):
    """At any channel, a more robust MCS delivers at least as reliably
    as a denser one."""
    probs = [delivery_probability(snrs, mcs, 1500) for mcs in MCS_TABLE]
    for robust, dense in zip(probs, probs[1:]):
        assert robust >= dense - 1e-9


@given(snr_vectors)
@settings(max_examples=60)
def test_preamble_at_least_as_robust_as_any_payload(snrs):
    preamble = preamble_success_probability(snrs)
    best_payload = max(
        delivery_probability(snrs, mcs, 1500) for mcs in MCS_TABLE
    )
    assert preamble >= best_payload - 1e-6


@given(snr_vectors, st.integers(min_value=100, max_value=3000))
@settings(max_examples=60)
def test_expected_throughput_bounded_by_phy_rate(snrs, length):
    for mcs in MCS_TABLE:
        tput = mcs.data_rate_bps * delivery_probability(snrs, mcs, length)
        assert 0.0 <= tput <= mcs.data_rate_bps + 1e-6
    top_rate = max(mcs.data_rate_bps for mcs in MCS_TABLE)
    assert 0.0 <= best_rate_bps(snrs, length) <= top_rate + 1e-6
