"""Property tests for the stacked PHY / fused channel calls.

The contract of the stacked twins in :mod:`repro.phy.per` and of
:func:`repro.channel.link_batch.warm_snapshots` is *bit identity*:
each must return, element for element, exactly the bytes the scalar
path produces — including NaN and ±inf inputs — so batching can
never change an experiment.  These tests sweep link
counts from 1 to 256, every modulation in the BER table, and injected
non-finite values, holding:

* the vectorized LUT gathers to their scalar counterparts,
* the stacked ESNR / preamble kernels to the per-row scalar functions,
* the stacked ESNR to the closed-form scipy ``*_exact`` oracle
  (0.05 dB bound),
* the preamble prewarm to fresh scalar recomputation, and
* the fused multi-link fading evolution to sequential per-link
  evolution (same RNG stream, same bits).
"""

from __future__ import annotations

import math

import numpy as np
import pytest

from repro.channel import ChannelMap, OmniAntenna, ParabolicAntenna, RadioPort
from repro.channel.link_batch import warm_snapshots
from repro.mobility import Position, Road, VehicleTrack
from repro.phy.ber import BER_BY_MODULATION
from repro.phy.esnr import effective_snr_db, effective_snr_db_exact
from repro.phy.lut import SNR_GRID_MAX_DB, SNR_GRID_MIN_DB, lut_for
from repro.phy.per import (
    _effective_snr_db_memo,
    effective_snr_db_batch,
    phy_memo_stats,
    preamble_success_batch,
    preamble_success_probability,
    prewarm_receivers,
    reset_phy_memos,
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
    def test_effective_snr_uncapped(self, n_rows, modulation):
        stack = _random_stack(np.random.default_rng(100 + n_rows), n_rows)
        batch = effective_snr_db_batch(stack, modulation)
        reset_phy_memos()
        _assert_bits_equal(
            batch, [_effective_snr_db_memo(row, modulation) for row in stack]
        )

    def test_one_dim_input_promotes(self):
        row = np.random.default_rng(9).uniform(0.0, 30.0, 56)
        batch = effective_snr_db_batch(row)
        assert batch.shape == (1,)
        _assert_bits_equal(batch, [effective_snr_db(row)])

    @pytest.mark.parametrize("n_rows", LINK_COUNTS)
    def test_preamble_success(self, n_rows):
        reset_phy_memos()
        stack = _random_stack(np.random.default_rng(23 + n_rows), n_rows)
        p = preamble_success_batch(stack)
        _assert_bits_equal(
            p, [preamble_success_probability(row) for row in stack]
        )


# ----------------------------------------------------------------------
# batched kernels vs closed-form oracles
# ----------------------------------------------------------------------


class TestBatchAgainstExactOracles:
    @pytest.mark.parametrize("modulation", MODULATIONS)
    def test_effective_snr_tracks_exact(self, modulation):
        rng = np.random.default_rng(41)
        stack = rng.uniform(0.0, 45.0, size=(32, 56))
        batch = effective_snr_db_batch(stack, modulation)
        for i, row in enumerate(stack):
            exact = effective_snr_db_exact(row, modulation)
            if exact < 45.0:  # beyond the cap the LUT saturates by design
                assert float(batch[i]) == pytest.approx(exact, abs=0.05)


# ----------------------------------------------------------------------
# prewarm: seeded memo values == fresh scalar recomputation
# ----------------------------------------------------------------------


class TestPrewarmSeeding:
    def test_prewarm_receivers_preamble_only_call(self):
        """The medium's call shape: preamble seeds only."""
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


# ----------------------------------------------------------------------
# fused fading vs sequential scalar evolution
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


def test_fused_warm_reuses_power_cached_for_the_other_direction():
    """A link whose fading power is already cached at this instant for
    the *other* transmitter (two frames on one link completing in the
    same microsecond) must reuse that power, not evolve again, and
    match the scalar path bit for bit beside cold and fully cached
    links."""
    fused_map = _make_channel_map(79, 5)
    scalar_map = _make_channel_map(79, 5)
    # ap0, ap1: uplink snapshot cached at 3000, so only the power fits
    # an AP-sent frame.  ap2: the AP-sent snapshot itself is cached.
    # ap3: last sampled earlier, so it evolves.  ap4: last sampled
    # later, so it joins the DFT without an AR(1) step.
    for cmap in (fused_map, scalar_map):
        for i in range(5):
            cmap.link(f"ap{i}", "client0").subcarrier_snr_db(
                5_000 if i == 4 else 1_000, tx_id=f"ap{i}"
            )
        for i in (0, 1):
            cmap.link(f"ap{i}", "client0").subcarrier_snr_db(
                3_000, tx_id="client0"
            )
        cmap.link("ap2", "client0").subcarrier_snr_db(3_000, tx_id="ap2")
    entries = [
        (fused_map.link(f"ap{i}", "client0"), f"ap{i}") for i in range(5)
    ]
    fused = warm_snapshots(3_000, entries)
    for i in range(5):
        link = scalar_map.link(f"ap{i}", "client0")
        want = link.subcarrier_snr_db(3_000, tx_id=f"ap{i}")
        assert fused[i].tobytes() == want.tobytes()
        assert (
            fused_map.link(f"ap{i}", "client0").subcarrier_snr_db(
                3_000, tx_id=f"ap{i}"
            )
            is fused[i]
        )
    # Both maps drew the same randomness: the next step agrees too.
    for i in range(5):
        got = fused_map.link(f"ap{i}", "client0").subcarrier_snr_db(
            4_000, tx_id="client0"
        )
        want = scalar_map.link(f"ap{i}", "client0").subcarrier_snr_db(
            4_000, tx_id="client0"
        )
        assert got.tobytes() == want.tobytes()
