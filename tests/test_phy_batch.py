"""Property tests for the batched PHY / channel kernels.

The contract of :mod:`repro.phy.batch` and
:mod:`repro.channel.link_batch` is *bit identity*: every batched
function must return, element for element, exactly the bytes the scalar
path produces — including NaN and ±inf inputs — so batching can
never change an experiment.  These tests sweep link
counts from 1 to 256, every modulation in the BER table, and injected
non-finite values, holding:

* the vectorized LUT gathers to their scalar counterparts,
* the stacked ESNR / coded-BER / preamble / payload / RSSI kernels to
  the per-row scalar functions in :mod:`repro.phy.per`,
* both to the closed-form scipy ``*_exact`` oracles (0.05 dB bound),
* the prewarm seeding to fresh scalar recomputation,
* the fused multi-link fading evolution to sequential per-link
  evolution (same RNG stream, same bits), and
* the fused probe path to strict side-effect freedom.
"""

from __future__ import annotations

import math

import numpy as np
import pytest

from repro.channel import ChannelMap, OmniAntenna, ParabolicAntenna, RadioPort
from repro.channel.link_batch import probe_snapshots, warm_snapshots
from repro.mobility import Position, Road, VehicleTrack
from repro.phy.ber import BER_BY_MODULATION
from repro.phy.batch import (
    coded_ber_batch,
    effective_snr_db_batch,
    mean_ber_batch,
    mpdu_payload_success_batch,
    preamble_success_batch,
    prewarm_best_rate,
    prewarm_receivers,
    rssi_offset_batch,
)
from repro.phy.esnr import (
    effective_snr_db,
    effective_snr_db_exact,
    mean_ber_exact,
)
from repro.phy.lut import (
    SNR_GRID_MAX_DB,
    SNR_GRID_MIN_DB,
    effective_snr_db_lut,
    lut_for,
)
from repro.phy.mcs import MCS_TABLE
from repro.phy.per import (
    best_rate_bps,
    coded_ber,
    mpdu_payload_success_probability,
    phy_memo_stats,
    preamble_success_probability,
    reset_phy_memos,
    wideband_rssi_offset_db,
)
from repro.sim import RngRegistry, Simulator

MODULATIONS = sorted(BER_BY_MODULATION)
LINK_COUNTS = [1, 2, 3, 5, 8, 17, 64, 256]

#: Values that stress every clamp and the NaN path of the gather
#: kernels, including the exact grid endpoints.
SPECIAL_SNRS = [
    math.nan,
    math.inf,
    -math.inf,
    -1e12,
    SNR_GRID_MIN_DB,
    SNR_GRID_MIN_DB - 1e-9,
    SNR_GRID_MIN_DB + 1e-9,
    0.0,
    -0.0,
    SNR_GRID_MAX_DB,
    SNR_GRID_MAX_DB - 1e-9,
    SNR_GRID_MAX_DB + 1e-9,
    1e12,
]


def _assert_bits_equal(batch: np.ndarray, scalars) -> None:
    """Byte-level comparison (catches NaN payloads and signed zeros)."""
    batch = np.asarray(batch, dtype=np.float64)
    reference = np.asarray([float(s) for s in scalars], dtype=np.float64)
    assert batch.shape == reference.shape
    assert batch.tobytes() == reference.tobytes(), (
        batch[batch != reference],
        reference[batch != reference],
    )


def _random_stack(rng: np.random.Generator, n_rows: int) -> np.ndarray:
    """Random channel stacks with occasional non-finite entries."""
    stack = rng.uniform(-20.0, 55.0, size=(n_rows, 56))
    # Sprinkle specials on ~1 row in 4.
    for i in range(0, n_rows, 4):
        j = int(rng.integers(0, 56))
        stack[i, j] = SPECIAL_SNRS[int(rng.integers(0, len(SPECIAL_SNRS)))]
    return stack


# ----------------------------------------------------------------------
# LUT gather kernels
# ----------------------------------------------------------------------


class TestLutGatherBitIdentity:
    @pytest.mark.parametrize("modulation", MODULATIONS)
    def test_forward_batch_matches_scalar(self, modulation):
        lut = lut_for(modulation)
        rng = np.random.default_rng(3)
        values = np.concatenate(
            [np.asarray(SPECIAL_SNRS), rng.uniform(-80.0, 80.0, 500)]
        )
        with np.errstate(all="raise"):
            batch = lut.ber_of_db_batch(values)
        _assert_bits_equal(batch, [lut.ber_of_db_scalar(v) for v in values])

    @pytest.mark.parametrize("modulation", MODULATIONS)
    def test_inverse_batch_matches_scalar(self, modulation):
        lut = lut_for(modulation)
        rng = np.random.default_rng(5)
        values = np.concatenate(
            [
                [0.0, 1e-300, 1e-41, 1e-40, float(lut.max_ber), 0.5, 1.0],
                10.0 ** rng.uniform(-45.0, 0.0, 500),
            ]
        )
        batch = lut.snr_db_for_ber_batch(values)
        _assert_bits_equal(batch, [lut.snr_db_for_ber(v) for v in values])


# ----------------------------------------------------------------------
# stacked kernels vs per-row scalars
# ----------------------------------------------------------------------


class TestStackedKernelsBitIdentity:
    @pytest.mark.parametrize("n_rows", LINK_COUNTS)
    @pytest.mark.parametrize("modulation", MODULATIONS)
    def test_effective_snr_capped(self, n_rows, modulation):
        stack = _random_stack(np.random.default_rng(n_rows), n_rows)
        batch = effective_snr_db_batch(stack, modulation, capped=True)
        _assert_bits_equal(
            batch, [effective_snr_db(row, modulation) for row in stack]
        )

    @pytest.mark.parametrize("n_rows", LINK_COUNTS)
    @pytest.mark.parametrize("modulation", MODULATIONS)
    def test_effective_snr_uncapped(self, n_rows, modulation):
        stack = _random_stack(np.random.default_rng(100 + n_rows), n_rows)
        batch = effective_snr_db_batch(stack, modulation, capped=False)
        _assert_bits_equal(
            batch, [effective_snr_db_lut(row, modulation) for row in stack]
        )

    def test_one_dim_input_promotes(self):
        row = np.random.default_rng(9).uniform(0.0, 30.0, 56)
        batch = effective_snr_db_batch(row)
        assert batch.shape == (1,)
        _assert_bits_equal(batch, [effective_snr_db(row)])

    @pytest.mark.parametrize("mcs", MCS_TABLE, ids=lambda m: m.name)
    def test_coded_ber(self, mcs):
        reset_phy_memos()
        stack = _random_stack(np.random.default_rng(21), 8)
        coded, _esnr = coded_ber_batch(stack, mcs)
        _assert_bits_equal(coded, [coded_ber(row, mcs) for row in stack])

    @pytest.mark.parametrize("n_rows", LINK_COUNTS)
    def test_preamble_success(self, n_rows):
        reset_phy_memos()
        stack = _random_stack(np.random.default_rng(23 + n_rows), n_rows)
        p, _esnr = preamble_success_batch(stack)
        _assert_bits_equal(
            p, [preamble_success_probability(row) for row in stack]
        )

    @pytest.mark.parametrize("mcs", MCS_TABLE, ids=lambda m: m.name)
    def test_mpdu_payload_success(self, mcs):
        reset_phy_memos()
        stack = _random_stack(np.random.default_rng(29), 16)
        for length in (64, 1500):
            batch = mpdu_payload_success_batch(stack, mcs, length)
            _assert_bits_equal(
                batch,
                [
                    mpdu_payload_success_probability(row, mcs, length)
                    for row in stack
                ],
            )

    @pytest.mark.parametrize("n_rows", LINK_COUNTS)
    def test_rssi_offset(self, n_rows):
        reset_phy_memos()
        stack = _random_stack(np.random.default_rng(31 + n_rows), n_rows)
        batch = rssi_offset_batch(stack)
        _assert_bits_equal(
            batch, [wideband_rssi_offset_db(row) for row in stack]
        )


# ----------------------------------------------------------------------
# batched kernels vs closed-form oracles
# ----------------------------------------------------------------------


class TestBatchAgainstExactOracles:
    @pytest.mark.parametrize("modulation", MODULATIONS)
    def test_effective_snr_tracks_exact(self, modulation):
        rng = np.random.default_rng(41)
        stack = rng.uniform(0.0, 45.0, size=(32, 56))
        batch = effective_snr_db_batch(stack, modulation, capped=False)
        for i, row in enumerate(stack):
            exact = effective_snr_db_exact(row, modulation)
            if exact < 45.0:  # beyond the cap the LUT saturates by design
                assert float(batch[i]) == pytest.approx(exact, abs=0.05)

    @pytest.mark.parametrize("modulation", MODULATIONS)
    def test_mean_ber_tracks_exact(self, modulation):
        rng = np.random.default_rng(43)
        stack = rng.uniform(0.0, 35.0, size=(16, 56))
        batch = mean_ber_batch(stack, modulation, 2.0)
        for i, row in enumerate(stack):
            exact = mean_ber_exact(row, modulation, 2.0)
            if exact > 1e-12:
                assert float(batch[i]) == pytest.approx(exact, rel=0.15)
            else:
                assert float(batch[i]) <= 1e-11


# ----------------------------------------------------------------------
# prewarm: seeded memo values == fresh scalar recomputation
# ----------------------------------------------------------------------


class TestPrewarmSeeding:
    def test_prewarm_receivers_seeds_scalar_values(self):
        reset_phy_memos()
        rng = np.random.default_rng(47)
        rows = [rng.uniform(-5.0, 35.0, 56) for _ in range(8)]
        mcs = MCS_TABLE[-1]
        prewarm_receivers(
            rows,
            data_mcs=mcs,
            data_indices=range(len(rows)),
            csi_indices=range(len(rows)),
        )
        before = phy_memo_stats()
        for row in rows:
            # Fresh copies force full scalar recomputation; the memos
            # keyed on the original objects must hold the same bits.
            reference = row.copy()
            assert preamble_success_probability(
                row
            ) == preamble_success_probability(reference)
            assert coded_ber(row, mcs) == coded_ber(reference, mcs)
            assert wideband_rssi_offset_db(row) == wideband_rssi_offset_db(
                reference
            )
        after = phy_memo_stats()
        # The original rows must have been served from the seeds.
        assert after["preamble"]["hits"] >= before["preamble"]["hits"] + 8
        assert after["coded_ber"]["hits"] >= before["coded_ber"]["hits"] + 8

    def test_prewarm_receivers_preamble_only_call(self):
        """The medium's call shape: no index sets, preamble seeds only."""
        reset_phy_memos()
        rng = np.random.default_rng(53)
        rows = [rng.uniform(-30.0, 30.0, 56) for _ in range(5)]
        prewarm_receivers(rows)
        before = phy_memo_stats()["preamble"]["hits"]
        values = [preamble_success_probability(row) for row in rows]
        assert phy_memo_stats()["preamble"]["hits"] == before + 5
        _assert_bits_equal(
            np.asarray(values),
            [preamble_success_probability(row.copy()) for row in rows],
        )

    def test_prewarm_best_rate_matches_scalar(self):
        reset_phy_memos()
        rng = np.random.default_rng(59)
        rows = [rng.uniform(-10.0, 40.0, 56) for _ in range(8)]
        prewarm_best_rate(rows)
        for row in rows:
            assert best_rate_bps(row) == best_rate_bps(row.copy())


# ----------------------------------------------------------------------
# fused fading / LinkBatch vs sequential scalar evolution
# ----------------------------------------------------------------------


def _make_channel_map(seed: int, num_aps: int):
    sim = Simulator()
    rng = RngRegistry(seed)
    road = Road()
    cmap = ChannelMap(sim, rng)
    for i in range(num_aps):
        x = 10.0 + 7.5 * i
        mount = Position(x, -12.0, 10.0)
        antenna = ParabolicAntenna(
            mount=mount, boresight=Position(x, 0.0, 1.5)
        )
        cmap.register_port(
            RadioPort(f"ap{i}", antenna, 20.0, lambda t, m=mount: m)
        )
    track = VehicleTrack(road, start_x=5.0, speed_mph=15.0)
    cmap.register_port(
        RadioPort(
            "client0",
            OmniAntenna(),
            15.0,
            track.position_at,
            lambda: track.speed_mps,
        )
    )
    return cmap


@pytest.mark.parametrize("num_aps", [2, 3, 8])
@pytest.mark.parametrize("tx_from_client", [False, True])
def test_fused_warm_matches_sequential_scalar(num_aps, tx_from_client):
    """warm_snapshots over N links == per-link subcarrier_snr_db, over a
    timestamp sequence that exercises cold, stale and cached states."""
    fused_map = _make_channel_map(71, num_aps)
    scalar_map = _make_channel_map(71, num_aps)
    times = [0, 1_000, 1_000, 3_500, 250_000, 250_400]
    for t in times:
        entries = []
        reference = []
        for i in range(num_aps):
            tx_id = "client0" if tx_from_client else f"ap{i}"
            entries.append((fused_map.link(f"ap{i}", "client0"), tx_id))
            reference.append(
                scalar_map.link(f"ap{i}", "client0").subcarrier_snr_db(
                    t, tx_id=tx_id
                )
            )
        fused = warm_snapshots(t, entries)
        for got, want in zip(fused, reference):
            assert got.tobytes() == want.tobytes()


def test_fused_warm_with_partially_warm_links():
    """Links that already hold the timestamp's snapshot must be served
    from cache (same object) while cold links are fused — mirroring a
    mid-run completion where some links were just probed."""
    fused_map = _make_channel_map(73, 4)
    scalar_map = _make_channel_map(73, 4)
    # Pre-touch two of the four links at t=2000 through the scalar path
    # on BOTH maps, so their RNG streams stay aligned.
    for cmap in (fused_map, scalar_map):
        for i in (0, 2):
            cmap.link(f"ap{i}", "client0").subcarrier_snr_db(
                2_000, tx_id=f"ap{i}"
            )
    entries = [
        (fused_map.link(f"ap{i}", "client0"), f"ap{i}") for i in range(4)
    ]
    fused = warm_snapshots(2_000, entries)
    for i in range(4):
        want = scalar_map.link(f"ap{i}", "client0").subcarrier_snr_db(
            2_000, tx_id=f"ap{i}"
        )
        assert fused[i].tobytes() == want.tobytes()


def test_fused_probe_is_side_effect_free():
    """probe_snapshots must not advance fading state or consume RNG:
    a committed snapshot after heavy probing equals one on a twin map
    that never probed."""
    probed_map = _make_channel_map(79, 3)
    control_map = _make_channel_map(79, 3)
    entries = [
        (probed_map.link(f"ap{i}", "client0"), f"ap{i}") for i in range(3)
    ]
    for t in (500, 900, 1_300, 2_000):
        probe_snapshots(t, entries)
    for i in range(3):
        after = probed_map.link(f"ap{i}", "client0").subcarrier_snr_db(
            5_000, tx_id=f"ap{i}"
        )
        control = control_map.link(f"ap{i}", "client0").subcarrier_snr_db(
            5_000, tx_id=f"ap{i}"
        )
        assert after.tobytes() == control.tobytes()


def test_fused_probe_matches_scalar_probe():
    cmap = _make_channel_map(83, 4)
    entries = [
        (cmap.link(f"ap{i}", "client0"), f"ap{i}") for i in range(4)
    ]
    fused = probe_snapshots(7_000, entries)
    for i in range(4):
        want = cmap.link(f"ap{i}", "client0").probe_subcarrier_snr_db(
            7_000, tx_id=f"ap{i}"
        )
        assert fused[i].tobytes() == want.tobytes()
