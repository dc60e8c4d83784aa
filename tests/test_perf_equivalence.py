"""Equivalence tests for the hot-path fast paths.

Every performance optimisation in this PR ships with the reference
implementation it replaced, and this module holds the two to each
other:

* the LUT-based effective SNR must track the closed-form scipy version
  within 0.05 dB everywhere in the 0–45 dB operating range;
* the incrementally maintained selection window must produce *exactly*
  the ``sorted(window)[n // 2]`` median of the naive implementation,
  element for element, over randomized insert/expire sequences;
* the parallel grid runner must return byte-identical results for
  ``jobs=1`` and ``jobs=2``;
* the selector must hold its memory bound (no dead series) over long
  multi-client runs;
* the engine's compacted heap must behave exactly like the lazy one.
"""

from __future__ import annotations

import random

import numpy as np
import pytest

from repro.core.selection import ApSelector
from repro.experiments.runner import run_grid
from repro.phy.ber import BER_BY_MODULATION, db_to_linear
from repro.phy.esnr import effective_snr_db, effective_snr_db_exact
from repro.phy.lut import lut_for
from repro.sim.engine import Simulator

#: The equivalence bound the LUT is held to (dB), everywhere in range.
LUT_TOLERANCE_DB = 0.05


# ----------------------------------------------------------------------
# LUT vs closed form
# ----------------------------------------------------------------------


class TestLutEquivalence:
    def test_flat_channels_across_operating_range(self):
        """Flat channels sweep the whole 0–45 dB range in 0.1 dB steps."""
        worst = 0.0
        for snr in np.arange(0.0, 45.0, 0.1):
            channel = np.full(56, snr)
            err = abs(effective_snr_db(channel) - effective_snr_db_exact(channel))
            worst = max(worst, err)
        assert worst <= LUT_TOLERANCE_DB

    def test_faded_channels(self):
        """Rayleigh-like spreads around every mean in the range."""
        rng = np.random.default_rng(7)
        worst = 0.0
        for mean_db in range(0, 46, 3):
            for _ in range(20):
                spread = rng.exponential(1.0, 56)
                channel = mean_db + 10.0 * np.log10(
                    np.maximum(spread, 1e-6)
                )
                err = abs(
                    effective_snr_db(channel) - effective_snr_db_exact(channel)
                )
                worst = max(worst, err)
        assert worst <= LUT_TOLERANCE_DB

    @pytest.mark.parametrize("modulation", sorted(BER_BY_MODULATION))
    def test_all_modulations(self, modulation):
        rng = np.random.default_rng(11)
        for _ in range(50):
            channel = rng.uniform(-5.0, 50.0, 56)
            fast = effective_snr_db(channel, modulation)
            exact = effective_snr_db_exact(channel, modulation)
            assert fast == pytest.approx(exact, abs=LUT_TOLERANCE_DB)

    @pytest.mark.parametrize("modulation", sorted(BER_BY_MODULATION))
    def test_mean_ber_tracks_closed_form(self, modulation):
        """The forward table every ESNR starts from, averaged the way
        the collapse averages it, against the closed-form curve."""
        rng = np.random.default_rng(13)
        for gain_db in (0.0, 2.0, 5.0):
            channel = rng.uniform(0.0, 35.0, 56) + gain_db
            fast = float(np.mean(lut_for(modulation).ber_of_db_batch(channel)))
            exact = float(
                np.mean(BER_BY_MODULATION[modulation](db_to_linear(channel)))
            )
            # BERs span decades; compare in the log domain where the
            # 0.05 dB SNR bound lives.
            if exact > 1e-12:
                assert fast == pytest.approx(exact, rel=0.15)
            else:
                assert fast <= 1e-11

    def test_saturation_matches(self):
        """At very high SNR the mean BER hits the inversion floor; both
        implementations must saturate at the same point (and below the
        45 dB cap)."""
        hot = effective_snr_db(np.full(56, 59.0))
        hotter = effective_snr_db(np.full(56, 80.0))
        assert hot == hotter  # saturated
        assert hot == pytest.approx(
            effective_snr_db_exact(np.full(56, 59.0)), abs=LUT_TOLERANCE_DB
        )
        assert hot <= 45.0

    def test_monotone_under_uniform_boost(self):
        """ESNR must stay monotone in a uniform SNR boost (ranking
        safety: the selector compares ESNRs)."""
        rng = np.random.default_rng(17)
        base = rng.uniform(5.0, 20.0, 56)
        values = [effective_snr_db(base + boost) for boost in np.arange(0, 25, 0.5)]
        assert all(b >= a - 1e-9 for a, b in zip(values, values[1:]))


# ----------------------------------------------------------------------
# incremental median vs sorted reference
# ----------------------------------------------------------------------


class _ReferenceSelector:
    """The seed's O(n log n) implementation, kept verbatim as an oracle."""

    def __init__(self, window_us: int = 10_000, metric: str = "median"):
        self.window_us = window_us
        self.metric = metric
        self._readings = {}

    def record(self, client_id, ap_id, time_us, esnr_db):
        per_client = self._readings.setdefault(client_id, {})
        series = per_client.setdefault(ap_id, [])
        series.append((time_us, esnr_db))
        horizon = time_us - self.window_us
        per_client[ap_id] = [(t, v) for t, v in series if t >= horizon]

    def median_esnr(self, client_id, ap_id, now_us):
        series = self._readings.get(client_id, {}).get(ap_id, [])
        horizon = now_us - self.window_us
        values = [v for t, v in series if t >= horizon]
        if not values:
            return None
        if self.metric == "median":
            return sorted(values)[len(values) // 2]
        if self.metric == "latest":
            return values[-1]
        import math

        return math.fsum(values) / len(values)

    def best_ap(self, client_id, now_us, incumbent=None, margin_db=0.0):
        per_client = self._readings.get(client_id, {})
        best_ap, best_value, incumbent_value = None, 0.0, None
        for ap_id in per_client:
            value = self.median_esnr(client_id, ap_id, now_us)
            if value is None:
                continue
            if best_ap is None or value > best_value:
                best_ap, best_value = ap_id, value
            if ap_id == incumbent:
                incumbent_value = value
        if best_ap is None:
            return incumbent
        if (
            incumbent is not None
            and incumbent_value is not None
            and best_ap != incumbent
            and best_value < incumbent_value + margin_db
        ):
            return incumbent
        return best_ap


@pytest.mark.parametrize("metric", ["median", "mean", "latest"])
def test_incremental_window_matches_sorted_reference(metric):
    """Randomized insert/expire sequences: the incremental statistic
    equals the naive recompute exactly (not approximately — ``==``)."""
    rng = random.Random(42)
    fast = ApSelector(window_us=5_000, metric=metric)
    ref = _ReferenceSelector(window_us=5_000, metric=metric)
    aps = ["ap0", "ap1", "ap2"]
    now = 0
    for _ in range(2_000):
        now += rng.randrange(1, 800)
        ap = rng.choice(aps)
        value = rng.uniform(0.0, 40.0)
        fast.record("c", ap, now, value)
        ref.record("c", ap, now, value)
        probe_ap = rng.choice(aps)
        assert fast.median_esnr("c", probe_ap, now) == ref.median_esnr(
            "c", probe_ap, now
        )


def test_incremental_best_ap_matches_reference():
    rng = random.Random(99)
    fast = ApSelector(window_us=10_000)
    ref = _ReferenceSelector(window_us=10_000)
    aps = [f"ap{i}" for i in range(5)]
    now, incumbent = 0, None
    for _ in range(1_500):
        now += rng.randrange(50, 2_000)
        for ap in aps:
            if rng.random() < 0.6:
                value = rng.uniform(5.0, 35.0)
                fast.record("c", ap, now, value)
                ref.record("c", ap, now, value)
        choice_fast = fast.best_ap("c", now, incumbent, margin_db=1.0)
        choice_ref = ref.best_ap("c", now, incumbent, margin_db=1.0)
        assert choice_fast == choice_ref
        incumbent = choice_fast


def test_selector_memory_stays_bounded():
    """Satellite (a): a long many-client run must not accumulate dead
    series — windows that prune to empty are dropped, and so are the
    per-client dicts."""
    selector = ApSelector(window_us=10_000)
    for step in range(50_000):
        now = step * 500
        client = f"c{step % 40}"
        ap = f"ap{step % 8}"
        selector.record(client, ap, now, 20.0)
        selector.candidates(client, now)
    # Pruning is lazy per queried client, so each client may retain its
    # most recent (not-yet-re-queried) series — but the total must stay
    # O(clients × live APs), NOT O(total records).  50 000 records and
    # 320 distinct (client, AP) pairs collapse to ≤ 1 live series per
    # client here (each client round-robins one AP per window).
    assert selector.series_count() <= 40

    # Fully expire everything via queries far in the future.
    far = 50_000 * 500 + 10_000_000
    for i in range(40):
        selector.candidates(f"c{i}", far)
    assert selector.series_count() == 0


def test_forget_client_drops_all_series():
    selector = ApSelector()
    for ap in ("a", "b", "c"):
        selector.record("client", ap, 1_000, 25.0)
    assert selector.series_count("client") == 3
    selector.forget_client("client")
    assert selector.series_count("client") == 0
    assert selector.best_ap("client", 1_500) is None
    selector.forget_client("client")  # idempotent


# ----------------------------------------------------------------------
# grid runner determinism
# ----------------------------------------------------------------------


def _parity_cell(seed: int, scale: float) -> dict:
    rng = np.random.default_rng(seed)
    return {
        "seed": seed,
        "value": float(rng.standard_normal() * scale),
        "series": [float(x) for x in rng.standard_normal(4)],
    }


def test_run_grid_parallel_matches_serial(monkeypatch):
    # run_grid clamps workers to the core count; force the clamp open so
    # the real executor path is exercised even on a single-core box.
    from repro.experiments import runner

    monkeypatch.setattr(runner, "available_jobs", lambda: 4)
    grid = [(seed, scale) for seed in (3, 7, 11) for scale in (1.0, 2.5)]
    serial = run_grid(_parity_cell, grid, jobs=1)
    parallel = run_grid(_parity_cell, grid, jobs=2)
    assert serial == parallel  # byte-identical, in grid order


def test_a_once_serial_driver_fans_out_to_the_same_result(monkeypatch):
    # tab01 ran its rates in a plain loop and dropped ``--jobs``; through
    # the one sweep it must give the same rows either way.
    from repro.experiments import runner, tab01

    monkeypatch.setattr(runner, "available_jobs", lambda: 4)
    assert tab01.run(seed=3, jobs=2) == tab01.run(seed=3, jobs=1)


def test_sweep_groups_by_key_in_seed_order(monkeypatch):
    from repro.experiments import runner

    monkeypatch.setattr(runner, "available_jobs", lambda: 4)
    swept = runner.sweep(_parity_cell, [(1.0,), (2.5,)], (3, 7, 11), jobs=2)
    assert list(swept) == [(1.0,), (2.5,)]
    assert swept[2.5,] == [_parity_cell(seed, 2.5) for seed in (3, 7, 11)]


def test_run_grid_preserves_grid_order(monkeypatch):
    from repro.experiments import runner

    monkeypatch.setattr(runner, "available_jobs", lambda: 4)
    results = run_grid(_parity_cell, [(9, 1.0), (1, 1.0), (5, 1.0)], jobs=2)
    assert [r["seed"] for r in results] == [9, 1, 5]


def test_run_grid_empty_grid():
    assert run_grid(_parity_cell, [], jobs=4) == []


# ----------------------------------------------------------------------
# engine heap compaction
# ----------------------------------------------------------------------


def test_compaction_preserves_firing_order():
    """Cancel enough to trigger compaction mid-stream, then verify the
    survivors fire in exactly (time, FIFO-among-equals) order."""
    sim = Simulator()
    fired = []
    handles = []
    for i in range(300):
        # Lots of duplicate timestamps to stress FIFO-among-equals.
        t = 1_000 + (i % 10) * 10
        handles.append(sim.schedule_at(t, lambda i=i: fired.append(i)))
    for i, handle in enumerate(handles):
        if i % 4 != 0:
            handle.cancel()
    assert sim.compactions >= 1
    assert sim.pending_events() == len([i for i in range(300) if i % 4 == 0])
    sim.run()
    expected = sorted(
        (i for i in range(300) if i % 4 == 0),
        key=lambda i: (1_000 + (i % 10) * 10, i),
    )
    assert fired == expected


def test_pending_events_is_exact_through_cancel_and_fire():
    sim = Simulator()
    handles = [sim.schedule(100 + i, lambda: None) for i in range(50)]
    assert sim.pending_events() == 50
    for h in handles[:20]:
        h.cancel()
        h.cancel()  # double-cancel must not double-count
    assert sim.pending_events() == 30
    while sim.step():
        pass
    assert sim.pending_events() == 0
    handles[-1].cancel()  # cancel-after-fire must not underflow
    assert sim.pending_events() == 0


def test_compaction_keeps_queue_near_live_size():
    sim = Simulator()
    live = []
    for i in range(5_000):
        handle = sim.schedule(10_000 + i, lambda: None)
        live.append(handle)
        if len(live) > 20:
            live.pop(0).cancel()
    # 4 980 cancellations against 20 live events: without compaction the
    # physical heap would hold 5 000 entries.
    assert sim.pending_events() == 20
    assert sim.queue_size() < 200
    assert sim.compactions > 0
