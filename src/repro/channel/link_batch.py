"""Fused same-timestamp evolution for a set of links (snapshot batching).

When a frame completes, the medium needs the channel snapshot of every
receiver *at the same instant*.  The scalar path walks those links one
Python call at a time — per-link AR(1) steps, per-link 56-point DFTs,
per-link ``log10`` — even though the heavy math is identical in shape
across the set.

:func:`warm_snapshots` takes the links that share a timestamp and runs
one pass over them, in slot order, on one ``(n_links, NUM_TAPS)`` tap
matrix:

1. one ``standard_normal(2·taps)`` draw from each evolving link's
   *private* stream — the draws must stay per-link so seeded runs are
   unchanged, and because every stream is private, drawing them
   back-to-back instead of interleaved with the math cannot change any
   stream's values;
2. one broadcast AR(1) update over the rows that need a step;
3. one ``(n_links, 56, taps)`` multiply + ``add.reduce`` DFT
   (:func:`repro.channel.fading.subcarrier_power_from_taps` — the same
   formulation the scalar path uses, see its docstring for why matmul
   is *not* usable here);
4. one ``(n_links, 56)`` ``linear_to_db`` + mean-SNR broadcast add.

Every elementwise kernel is shared with the scalar path, so a fused
evolution is **bit-identical** to sequential per-link
:meth:`~repro.channel.link.Link.subcarrier_snr_db` calls —
``tests/test_phy_batch.py`` asserts this property directly.

A link whose snapshot is already cached is served from the cache; one
whose fading power is cached for the other transmitter (two frames on
one link completing in the same microsecond) takes the scalar path,
which reuses that power.  Fewer than two entries have nothing to fuse
and take the scalar path whole; the ledger workloads have completions
on both sides of that line (docs/performance.md).
"""

from __future__ import annotations

import math
from typing import List, Optional, Tuple

import numpy as np

from repro.channel.fading import NUM_TAPS, SCATTER_SCALE, subcarrier_power_from_taps
from repro.channel.link import Link
from repro.phy.ber import linear_to_db


def warm_snapshots(
    time_us: int, entries: List[Tuple[Link, str]]
) -> List[np.ndarray]:
    """Evolve every link to ``time_us`` and return the SNR snapshots.

    Entries are ``(link, tx_id)`` pairs — ``tx_id`` resolves the
    transmit power (either endpoint of the link may be the sender);
    each link may appear at most once.  Side effects match the scalar
    path exactly: fading state and RNG streams advance, and each link's
    power/snapshot caches are seeded, so a subsequent
    ``link.subcarrier_snr_db(time_us, ...)`` is a cache hit returning
    the same array object.
    """
    if len(entries) < 2:  # nothing to fuse — scalar path is cheaper
        return [
            link.subcarrier_snr_db(time_us, tx_id=tx_id)
            for link, tx_id in entries
        ]

    results: List[Optional[np.ndarray]] = [None] * len(entries)
    fresh: List[tuple] = []  # (slot, link, tx_dbm, mean_db)
    for slot, (link, tx_id) in enumerate(entries):
        tx_dbm = link._tx_power_dbm(tx_id)
        cached = link._snr_cache
        if cached is not None and link._snr_key == (time_us, tx_dbm):
            results[slot] = cached
        elif link._cache_time == time_us:
            # Power cached for the other transmitter: the scalar path
            # reuses it (rare: two frames on one link in one µs).
            results[slot] = link.subcarrier_snr_db(time_us, tx_id=tx_id)
        else:
            fresh.append(
                (slot, link, tx_dbm, link.mean_snr_db(time_us, tx_id=tx_id))
            )
    if not fresh:
        return results  # type: ignore[return-value]

    # Preallocated buffers filled row by row — np.stack costs more than
    # the whole AR(1) update at these batch sizes.
    taps = np.empty((len(fresh), NUM_TAPS), dtype=complex)
    steps: List[int] = []  # rows needing an AR(1) step
    stepped = []  # their channels
    rhos: List[float] = []
    for row, (_slot, link, _tx_dbm, _mean_db) in enumerate(fresh):
        ch = link._fading
        taps[row] = ch._taps
        if ch._last_time_us is None:
            # First sample: the stationary draw is the state.
            ch._last_time_us = time_us
        elif time_us > ch._last_time_us:
            steps.append(row)
            stepped.append(ch)
            rhos.append(math.exp(-(time_us - ch._last_time_us) / link._coherence_us()))
    if steps:
        # TappedRayleighChannel.evolve_to, operation for operation, with
        # each draw from its link's own stream.
        draws = np.empty((len(steps), 2 * NUM_TAPS))
        stds = np.empty((len(steps), 1))
        for i, ch in enumerate(stepped):
            ch._rng.standard_normal(2 * NUM_TAPS, out=draws[i])
            stds[i, 0] = math.sqrt(1.0 - rhos[i] * rhos[i])
        innovation = (draws[:, :NUM_TAPS] + 1j * draws[:, NUM_TAPS:]) * SCATTER_SCALE
        # Usually every row steps; a basic slice then spares the gather.
        rows = steps if len(steps) < len(fresh) else slice(None)
        taps[rows] = np.array(rhos)[:, None] * taps[rows] + stds * innovation
        for row, ch in zip(steps, stepped):
            # A row view: the scalar path never mutates taps in place
            # (every update rebinds), so sharing the matrix is safe.
            ch._taps = taps[row]
            ch._last_time_us = time_us

    power = subcarrier_power_from_taps(taps[:, None, :])
    means = np.array([item[3] for item in fresh], dtype=float)[:, None]
    snapshots = means + linear_to_db(power)
    for row, (slot, link, tx_dbm, _mean_db) in enumerate(fresh):
        snapshot = snapshots[row]  # one object: the PHY memos key on it
        link._seed_snapshot(time_us, tx_dbm, power[row], snapshot)
        results[slot] = snapshot
    return results  # type: ignore[return-value]
