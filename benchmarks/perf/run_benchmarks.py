#!/usr/bin/env python
"""Three hot-path probes, written to JSON.

The perf ledger (``benchmarks/ledger``) is the benchmark: whole drives,
end to end and layer by layer.  It imports these three micro-probes
(``layers.probe_metrics``) so that a traced run also says what one
event, one ESNR evaluation and one selector query cost in isolation:

* ``engine``    — discrete-event throughput (schedule/cancel/fire mix),
                  plus the heap-compaction behaviour under timer churn.
* ``esnr``      — effective-SNR evaluations/s under the MAC's real
                  per-frame call pattern (several evaluations of each
                  snapshot — what the identity memos exist for), LUT
                  fast path vs the seed's per-evaluation scipy chain;
                  cold single-evaluation timings recorded alongside.
* ``selector``  — AP-selection queries/s, incremental sliding window
                  vs the naive re-``sorted()`` reference.

Usage::

    PYTHONPATH=src python benchmarks/perf/run_benchmarks.py [--output PATH]

A probe number is context, never a claim: a speed claim is a ledger
metric on a whole workload (docs/performance.md).
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import random
import time

import numpy as np


def _best_of(fn, repeats: int = 3) -> float:
    """Best-of-N wall time of ``fn()`` — robust to scheduler noise."""
    best = math.inf
    for _ in range(repeats):
        t0 = time.perf_counter()
        fn()
        best = min(best, time.perf_counter() - t0)
    return best


# ----------------------------------------------------------------------
# engine
# ----------------------------------------------------------------------


def bench_engine() -> dict:
    from repro.sim.engine import Simulator

    n_events = 200_000

    def churn() -> Simulator:
        sim = Simulator()
        rng = random.Random(7)
        pending = []
        for i in range(n_events):
            handle = sim.schedule(rng.randrange(1, 5_000), lambda: None)
            pending.append(handle)
            # MAC-like behaviour: most timers are cancelled, not fired.
            if len(pending) > 32:
                pending.pop(rng.randrange(len(pending))).cancel()
            if i % 16 == 0:
                sim.step()
        sim.run()
        return sim

    elapsed = _best_of(churn)
    sim = churn()
    return {
        "events_scheduled": n_events,
        "wall_s": round(elapsed, 4),
        "events_per_s": round(n_events / elapsed),
        "compactions": sim.compactions,
        "final_queue_size": sim.queue_size(),
    }


# ----------------------------------------------------------------------
# effective SNR
# ----------------------------------------------------------------------


#: Evaluations of one SNR snapshot per timed pass — the repetition the
#: identity memos in ``repro.phy.per`` serve from a dictionary, against
#: the seed's full scipy chain per evaluation.  An upper bound on what
#: a drive sees: the MAC evaluates the payload term once per distinct
#: MPDU size, and the measured ``esnr`` memo hit share on the ledger
#: workloads is 2-18 % (docs/performance.md).
ESNR_EVALS_PER_SNAPSHOT = 4


def bench_esnr() -> dict:
    """The per-frame ESNR chain, driven the way the MAC drives it.

    Replays the simulator's call pattern — ``ESNR_EVALS_PER_SNAPSHOT``
    evaluations of each snapshot, fresh snapshot per frame — through
    the memoised LUT fast path (``repro.phy.per``) and through the
    seed's per-evaluation scipy chain.  Cold (single-evaluation, no
    memo benefit) timings for both are recorded alongside.
    """
    from repro.phy.esnr import effective_snr_db, effective_snr_db_exact
    from repro.phy.per import _effective_snr_db_memo

    rng = np.random.default_rng(3)
    channels = [rng.uniform(0.0, 40.0, 56) for _ in range(2_000)]
    k = ESNR_EVALS_PER_SNAPSHOT
    total = k * len(channels)

    def run_fast():
        for channel in channels:
            for _ in range(k):
                _effective_snr_db_memo(channel, "64qam")

    def run_exact():
        for channel in channels:
            for _ in range(k):
                effective_snr_db_exact(channel)

    def run_fast_cold():
        for channel in channels:
            effective_snr_db(channel)

    def run_exact_cold():
        for channel in channels:
            effective_snr_db_exact(channel)

    effective_snr_db(channels[0])  # build the tables outside the timer
    fast = _best_of(run_fast)
    exact = _best_of(run_exact)
    fast_cold = _best_of(run_fast_cold)
    exact_cold = _best_of(run_exact_cold)
    worst_err = max(
        abs(effective_snr_db(c) - effective_snr_db_exact(c)) for c in channels
    )
    return {
        "snapshots": len(channels),
        "evals_per_snapshot": k,
        "evaluations": total,
        "lut_us_per_eval": round(fast / total * 1e6, 3),
        "exact_us_per_eval": round(exact / total * 1e6, 3),
        "lut_evals_per_s": round(total / fast),
        "exact_evals_per_s": round(total / exact),
        "speedup": round(exact / fast, 2),
        "lut_cold_us_per_call": round(fast_cold / len(channels) * 1e6, 3),
        "exact_cold_us_per_call": round(exact_cold / len(channels) * 1e6, 3),
        "cold_speedup": round(exact_cold / fast_cold, 2),
        "worst_abs_error_db": round(worst_err, 5),
    }


# ----------------------------------------------------------------------
# AP selector
# ----------------------------------------------------------------------


class _SortedReferenceSelector:
    """The pre-overhaul O(n log n)-per-query window, as a yardstick."""

    def __init__(self, window_us: int = 10_000):
        self.window_us = window_us
        self._readings: dict = {}

    def record(self, client, ap, time_us, value):
        per_client = self._readings.setdefault(client, {})
        series = per_client.setdefault(ap, [])
        series.append((time_us, value))
        horizon = time_us - self.window_us
        per_client[ap] = [(t, v) for t, v in series if t >= horizon]

    def best_ap(self, client, now_us):
        per_client = self._readings.get(client, {})
        best, best_value = None, 0.0
        horizon = now_us - self.window_us
        for ap, series in per_client.items():
            values = sorted(v for t, v in series if t >= horizon)
            if not values:
                continue
            value = values[len(values) // 2]
            if best is None or value > best_value:
                best, best_value = ap, value
        return best


def _selector_workload(selector, n_steps: int) -> None:
    rng = random.Random(11)
    aps = [f"ap{i}" for i in range(8)]
    now = 0
    for _ in range(n_steps):
        now += rng.randrange(100, 600)
        for ap in aps:
            if rng.random() < 0.5:
                selector.record("c", ap, now, rng.uniform(5.0, 35.0))
        selector.best_ap("c", now)


def bench_selector() -> dict:
    from repro.core.selection import ApSelector

    n_steps = 5_000
    fast = _best_of(lambda: _selector_workload(ApSelector(), n_steps))
    reference = _best_of(
        lambda: _selector_workload(_SortedReferenceSelector(), n_steps)
    )
    return {
        "query_steps": n_steps,
        "incremental_wall_s": round(fast, 4),
        "reference_wall_s": round(reference, 4),
        "incremental_queries_per_s": round(n_steps / fast),
        "reference_queries_per_s": round(n_steps / reference),
        "speedup": round(reference / fast, 2),
    }


# ----------------------------------------------------------------------
# entry point
# ----------------------------------------------------------------------


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--output", default=None, metavar="PATH",
                        help="also write the JSON report here")
    args = parser.parse_args()

    report = {
        "generated_by": "benchmarks/perf/run_benchmarks.py",
        "python": platform.python_version(),
        "numpy": np.__version__,
        "machine": platform.machine(),
        "cpu_count": os.cpu_count(),
        "engine": bench_engine(),
        "esnr": bench_esnr(),
        "selector": bench_selector(),
    }
    text = json.dumps(report, indent=2) + "\n"
    if args.output:
        with open(args.output, "w") as fh:
            fh.write(text)
        print(f"wrote {args.output}")
    print(text)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
