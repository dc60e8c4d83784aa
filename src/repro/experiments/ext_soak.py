"""Extension experiment: SLO-guarded endurance soak.

The paper's deployment argument is a week of healthy operation on
eight APs; a transit operator's question is what happens over months
of churn — thousands of rider sessions arriving and leaving, flows
whose sizes are heavy-tailed, APs crashing and restarting underneath
them.  This experiment drives :mod:`repro.soak` at two scales:

* ``run()`` — the endurance run: one sim-hour (quick: two sim-minutes)
  of Poisson rider churn with continuous background faults, reporting
  cumulative arrivals/departures, delivery ratio, violation count, and
  the determinism fingerprint.  The full run crosses 1000 cumulative
  arrivals, the ISSUE's acceptance bar.
* ``smoke()`` — the CI gate: a ~60 s soak at ~50-rider churn
  scale executed TWICE with the same seed, asserting byte-identical
  fingerprints, zero SLO/invariant violations in both runs, and that
  churn actually happened (arrivals and departures both nonzero).

Both run through ``repro experiment ext_soak [--smoke] [--full]``
(nonzero exit on any violation or fingerprint divergence; ``--full`` is
the sim-hour endurance run).
"""

from __future__ import annotations

from typing import Dict

from repro.experiments.registry import register
from repro.soak.harness import SoakConfig, SoakResult, run_soak
from repro.soak.workload import WorkloadConfig

#: Arrival rate of the full endurance run — 0.3/s over a sim-hour is
#: ~1080 expected arrivals, comfortably past the 1000-arrival bar.
FULL_ARRIVAL_RATE_PER_S = 0.3
FULL_DURATION_S = 3600.0
QUICK_DURATION_S = 120.0

#: Smoke scale: ~50 cumulative arrivals in ~60 s of sim time, with
#: flow rates turned down so the CI job stays fast while the churn,
#: fault, admission, and guard machinery is fully exercised.
SMOKE_DURATION_S = 60.0
SMOKE_ARRIVAL_RATE_PER_S = 0.8


def _smoke_config(seed: int) -> SoakConfig:
    workload = WorkloadConfig(
        arrival_rate_per_s=SMOKE_ARRIVAL_RATE_PER_S,
        mean_dwell_s=12.0,
        max_concurrent=50,
        rate_min_bps=0.25e6,
        rate_max_bps=1.5e6,
        size_min_bytes=16 * 1024,
        size_max_bytes=4 * 1024 * 1024,
    )
    return SoakConfig(
        seed=seed,
        duration_s=SMOKE_DURATION_S,
        workload=workload,
        fault_intensity=1.0,
        admission_enabled=False,
    )


def _result_row(result: SoakResult) -> Dict:
    return {
        "ok": result.ok,
        "fingerprint": result.fingerprint,
        "samples": result.samples,
        "violations": result.violations,
        "arrivals": result.churn_stats["arrivals"],
        "departures": result.churn_stats["departures"],
        "rejected": result.churn_stats["rejected"],
        "flows_started": result.churn_stats["flows_started"],
        "delivery_ratio": result.delivery_ratio,
        "mean_delay_us": result.mean_delay_us,
    }


def run(seed: int = 1, quick: bool = True, jobs: int = 1) -> Dict:
    """Endurance run (full: one sim-hour, >=1000 cumulative arrivals).

    A soak is one long serial simulation: there is nothing for ``jobs``
    to fan out.
    """
    duration_s = QUICK_DURATION_S if quick else FULL_DURATION_S
    config = SoakConfig(
        seed=seed,
        duration_s=duration_s,
        workload=WorkloadConfig(arrival_rate_per_s=FULL_ARRIVAL_RATE_PER_S),
        fault_intensity=1.0,
        admission_enabled=False,
    )
    result = run_soak(config)
    row = _result_row(result)
    row["duration_s"] = duration_s
    row["summary"] = result.summary()
    return {"rows": [row], "ok": result.ok}


# ----------------------------------------------------------------------
# CI smoke: double run, fingerprint identity, zero violations
# ----------------------------------------------------------------------


def smoke(seed: int = 3) -> Dict:
    """Run the smoke-scale soak twice with one seed; fail unless the
    runs are fingerprint-identical, violation-free, and actually
    churned (nonzero arrivals and departures)."""
    first = run_soak(_smoke_config(seed))
    second = run_soak(_smoke_config(seed))
    reproducible = first.fingerprint == second.fingerprint
    churned = (
        first.churn_stats["arrivals"] > 0
        and first.churn_stats["departures"] > 0
    )
    ok = first.ok and second.ok and reproducible and churned
    return {
        "ok": ok,
        "reproducible": reproducible,
        "churned": churned,
        "first": _result_row(first),
        "second": _result_row(second),
        "summary": first.summary(),
    }


register(
    "ext_soak", "SLO-guarded endurance soak: churn x faults x admission", run,
    smoke=smoke,
)
