"""Extension experiment: seeded protocol-fuzz gate for the adversary.

The paper's protocol is argued correct over a *benign* backhaul — the
worst it imagines is loss and latency.  This gate turns the
message-level adversary (:mod:`repro.faults`: duplication, stale
replay, corruption, one-way partitions, gray failure) loose on full
drive-bys while the runtime invariant checker
(:mod:`repro.invariants`) audits every correctness claim the switching
protocol makes:

* no invariant violations — single serving AP, monotonic serving
  generations, terminating handshakes, one active controller, bounded
  retry storms, liveness agreement;
* zero duplicate deliveries past the server-side dedup, no matter how
  many copies the adversary injects;
* eventual delivery — admitted flows make forward progress despite the
  abuse;
* byte-determinism — the same ``(seed, schedule)`` twice produces the
  identical outcome digest.

Each schedule draws Poisson windows of every adversary class from the
seed's own named streams (no crashes or symmetric partitions: this
gate isolates *message-level* misbehaviour), runs it over the plain
WGTT testbed and over the warm-standby HA pair, and hard-fails on any
breach.  ``--smoke`` runs a CI-sized subset plus a double-run
determinism check; the full sweep fuzzes ``>= 20`` schedules.
"""

from __future__ import annotations

from typing import Dict, List

from repro.core.config import WgttConfig
from repro.experiments.common import outcome_digest
from repro.experiments.registry import register
from repro.experiments.runner import sweep
from repro.faults.plan import (
    FaultPlan,
    GrayFailure,
    MsgCorruption,
    MsgDuplication,
    OneWayPartition,
    StaleReplay,
)
from repro.scenarios.testbed import Testbed, TestbedConfig
from repro.sim.engine import SECOND
from repro.sim.rng import RngRegistry

#: Adversary window arrival rates (per second of sim time) — every
#: class lands multiple windows per run.
RATES_PER_S = {
    MsgDuplication: 0.5,
    StaleReplay: 0.4,
    MsgCorruption: 0.3,
    OneWayPartition: 0.4,
    GrayFailure: 0.3,
}

#: Schedules per scheme in the full gate (>= 20 total with two schemes).
FULL_SCHEDULES_PER_SCHEME = 10
#: Schedules per scheme in the CI smoke.
SMOKE_SCHEDULES_PER_SCHEME = 2


def adversary_plan(
    seed: int,
    ap_ids: List[str],
    duration_us: int,
) -> FaultPlan:
    """One seeded, purely message-level adversary schedule.

    Crash/partition rates stay zero on purpose: process failures have
    their own gates (``ext_faults``, ``ext_ha``); this one must prove
    the protocol is idempotent and replay-proof while every process
    stays up, so any invariant breach indicts a *handler*, not a
    recovery path.
    """
    plan_rng = RngRegistry(seed).spawn("adversary-plan")
    return FaultPlan.random(
        plan_rng,
        ap_ids,
        duration_us,
        RATES_PER_S,
        overrides={MsgDuplication: {"copies": 2}},
    )


def cell(seed: int, ha: bool, duration_s: float) -> Dict:
    """One adversary schedule over one testbed, invariants armed."""
    duration_us = int(duration_s * SECOND)
    base = TestbedConfig()
    ap_ids = [f"ap{i}" for i in range(base.num_aps)]
    plan = adversary_plan(seed, ap_ids, duration_us)
    config = TestbedConfig(
        seed=seed,
        scheme="wgtt",
        wgtt=WgttConfig(ha_enabled=True) if ha else WgttConfig(),
        fault_plan=plan,
    )
    testbed = Testbed(config)
    checker = testbed.install_invariant_checker()

    dl_sender, dl_receiver = testbed.add_downlink_tcp_flow(0)
    dl_sender.start()
    ul_source, ul_sink = testbed.add_uplink_udp_flow(0, rate_bps=2e6)
    ul_source.start()

    testbed.run_seconds(duration_s)
    report = checker.finish()

    backhaul = testbed.backhaul.stats
    controller = testbed.active_controller()
    dedup = controller.dedup
    adversary_executed = len(plan.adversary_events())
    dl_progress = dl_receiver.rcv_nxt > 0
    ul_progress = len(ul_sink.arrivals) > 0

    outcome = {
        "seed": seed,
        "scheme": "ha" if ha else "wgtt",
        "planned_adversary_events": adversary_executed,
        "injected_duplicates": backhaul.duplicated,
        "injected_replays": backhaul.replayed,
        "corrupt_dropped": backhaul.corrupt_dropped,
        "oneway_dropped": backhaul.oneway_dropped,
        "gray_dropped": backhaul.gray_dropped,
        "dedup_suppressed": dedup.duplicates,
        "stale_acks": controller.coordinator.stale_acks,
        "switches": len(controller.coordinator.history),
        "invariant_checks": report["checks"],
        "invariant_violations": report["counts"],
        "violations": report["violations"],
        "downlink_segments": dl_receiver.rcv_nxt,
        "uplink_delivered": len(ul_sink.arrivals),
    }
    outcome["ok"] = bool(
        report["ok"]
        and report["counts"]["no-duplicate-delivery"] == 0
        and dl_progress
        and ul_progress
    )
    return outcome


def run(seed: int = 1, quick: bool = True, jobs: int = 1) -> Dict:
    """Schedules ``seed``, ``seed + 1``, … over both schemes."""
    per_scheme = (
        FULL_SCHEDULES_PER_SCHEME
        if not quick
        else max(3, FULL_SCHEDULES_PER_SCHEME // 2)
    )
    duration_s = 6.0 if quick else 8.0
    swept = sweep(
        cell,
        [(ha, duration_s) for ha in (False, True)],
        range(seed, seed + per_scheme),
        jobs,
    )
    outcomes = [outcome for cells in swept.values() for outcome in cells]
    failed = [o for o in outcomes if not o["ok"]]
    return {
        "schedules": len(outcomes),
        "ok": not failed,
        "failed": failed,
        "injected_duplicates": sum(
            o["injected_duplicates"] for o in outcomes
        ),
        "injected_replays": sum(o["injected_replays"] for o in outcomes),
        "dedup_suppressed": sum(o["dedup_suppressed"] for o in outcomes),
        "stale_acks": sum(o["stale_acks"] for o in outcomes),
        "violations": [v for o in outcomes for v in o["violations"]],
        "rows": outcomes,
    }


# ----------------------------------------------------------------------
# CI smoke: a handful of schedules over both schemes, plus a
# double-run determinism check, hard pass/fail
# ----------------------------------------------------------------------


def smoke(seed: int = 3) -> Dict:
    """Small fuzz gate: N schedules per scheme; schedule #1 runs twice
    and must produce the identical outcome digest."""
    duration_s = 5.0
    outcomes: List[Dict] = []
    for ha in (False, True):
        for offset in range(SMOKE_SCHEDULES_PER_SCHEME):
            outcomes.append(cell(seed + offset, ha, duration_s))
    rerun = cell(seed, False, duration_s)
    first = next(
        o for o in outcomes if o["scheme"] == "wgtt" and o["seed"] == seed
    )
    deterministic = outcome_digest(rerun) == outcome_digest(first)
    exercised = (
        sum(o["injected_duplicates"] for o in outcomes) > 0
        and sum(o["injected_replays"] for o in outcomes) > 0
    )
    ok = all(o["ok"] for o in outcomes) and deterministic and exercised
    return {
        "ok": ok,
        "schedules": len(outcomes),
        "deterministic": deterministic,
        "digest": outcome_digest(first),
        "adversary_exercised": exercised,
        "violations": [v for o in outcomes for v in o["violations"]],
        "rows": outcomes,
    }


register(
    "ext_adversary",
    "protocol fuzz: message-level adversary schedules vs runtime invariants",
    run, smoke=smoke,
)
