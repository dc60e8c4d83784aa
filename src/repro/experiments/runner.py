"""Parallel fan-out for the per-figure experiment grids.

Every figure driver is, structurally, the same computation: evaluate an
independent simulation cell at every point of a small parameter grid
(scheme × protocol × speed × seed …) and aggregate.  The cells share no
state — each builds its own :class:`Simulator` and RNG registry from the
seed — so they parallelize embarrassingly.

:func:`sweep` is the one fan-out the drivers use, over the primitive
:func:`run_grid`.  Its contract is *determinism first*:

* the grid is materialized up front and every cell is keyed by its
  position, not by completion time;
* results come back in grid order regardless of worker scheduling, so
  ``jobs=N`` output is byte-identical to ``jobs=1`` for the same seeds
  (the parity tests in ``tests/test_perf_equivalence.py`` assert this);
* ``jobs=1`` short-circuits to a plain in-process loop — no executor,
  no pickling, nothing to go wrong on constrained CI boxes; ``jobs=0``
  asks for every core.

The cell function must be a module-level callable and its grid points
picklable (the drivers pass primitives and tuples only), because workers
are separate processes.
"""

from __future__ import annotations

import os
from typing import Callable, Dict, Iterable, List, Sequence, Tuple


def available_jobs() -> int:
    """Worker count that saturates this machine (for ``--jobs 0``)."""
    return os.cpu_count() or 1


def run_grid(cell: Callable, grid: Iterable[Tuple], jobs: int = 1) -> List:
    """Evaluate ``cell(*point)`` for every grid point, in grid order.

    Serial when ``jobs=1`` (or for a single point); otherwise fans out
    over a :class:`~concurrent.futures.ProcessPoolExecutor` and collects
    results in submission order, which makes the output independent of
    worker scheduling — the determinism contract above.

    The worker count is clamped to the number of points *and* to the
    machine's core count: simulation cells are CPU-bound, so
    oversubscription buys nothing and costs context switches and cache
    thrash (``make -j`` and joblib apply the same clamp).  A clamp to 1
    short-circuits to the serial loop; the result is identical either
    way.
    """
    points: Sequence[Tuple] = list(grid)
    cores = available_jobs()
    workers = min(jobs or cores, len(points), cores)
    if workers <= 1:
        return [cell(*point) for point in points]

    from concurrent.futures import ProcessPoolExecutor
    with ProcessPoolExecutor(max_workers=workers) as pool:
        futures = [pool.submit(cell, *point) for point in points]
        # In submission (= grid) order, NOT completion order.
        return [future.result() for future in futures]


def sweep(
    cell: Callable,
    keys: Iterable[Tuple],
    seeds: Sequence[int],
    jobs: int = 1,
) -> Dict[Tuple, List]:
    """``{key: [cell(seed, *key) for seed in seeds]}`` over one flat grid.

    The whole (key × seed) product goes to :func:`run_grid` at once so
    every worker stays busy; the slices handed back follow the order of
    ``keys`` and ``seeds``, so the result never depends on ``jobs``.
    """
    keys = list(keys)
    results = run_grid(
        cell, [(seed, *key) for key in keys for seed in seeds], jobs
    )
    return {
        key: results[i * len(seeds) : (i + 1) * len(seeds)]
        for i, key in enumerate(keys)
    }
