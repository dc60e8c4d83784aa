"""Endurance-run (soak) subsystem: workload churn, fault pressure,
admission control, and SLO-guarded execution.

A soak exercises the WGTT array the way a transit operator would run
it: hour-scale sim time, a heavy-tailed workload carried by a churning
rider population (Poisson arrivals, dwell-bounded departures), rolling
background faults, and a guard that samples the metrics registry on a
sim-time cadence, streams JSONL telemetry, and fails fast on any
bounded-memory, determinism, or latency/loss violation.

Composition::

    WorkloadPlan.generate(...)   # seeded churn + flow schedule (data)
    FaultPlan.soak(...)          # seeded continuous chaos (data)
    ChurnDriver                  # executes arrivals/departures/flows
    SloGuard                     # samples, streams, asserts
    SoakHarness.run()            # wires it all and returns SoakResult

Everything is drawn from named rng streams before the simulation
starts, so a whole soak — churn, faults, traffic — is byte-reproducible
from its seed.
"""

from repro.soak.churn import ChurnDriver
from repro.soak.harness import SoakConfig, SoakHarness, SoakResult, run_soak
from repro.soak.slo import SloBudgets, SloGuard, SoakViolationError
from repro.soak.workload import (
    ClientSession,
    FlowSpec,
    WorkloadConfig,
    WorkloadPlan,
)

__all__ = [
    "ChurnDriver",
    "ClientSession",
    "FlowSpec",
    "SloBudgets",
    "SloGuard",
    "SoakConfig",
    "SoakHarness",
    "SoakResult",
    "SoakViolationError",
    "WorkloadConfig",
    "WorkloadPlan",
    "run_soak",
]
