"""Extension experiment: city-scale sharded control plane gate.

The paper runs one controller over an eight-AP city block.  A transit
*network* is a different regime: hundreds of picocells along miles of
corridor, more than one controller's worth of clients, and a nearest-AP
query that must not scan the whole deployment per event.  This gate
exercises the :mod:`repro.shard` control plane end to end:

* a corridor partitioned into contiguous AP-cluster shards, each owned
  by its own controller (optionally with a warm standby per shard);
* fleets of clients riding through shard boundaries, their
  controller-side state (selection windows, serving map, dedup window)
  migrating via the checkpoint-based inter-shard handoff protocol;
* the sharded runtime invariant checker
  (:class:`~repro.invariants.ShardInvariantChecker`) auditing
  every run — zero violations, zero duplicate deliveries across
  handoffs;
* byte-determinism — the same seed twice produces the identical
  outcome digest.

Every result also carries :func:`candidate_set_bench`: the per-query
candidate-set cost of the uniform-grid AP index
(:class:`~repro.mobility.spatial.ApGridIndex`) against the legacy
linear scan as the deployment grows — operation counts, no timing —
and ``--smoke`` fails unless that cost stays flat.
"""

from __future__ import annotations

from typing import Dict, List, Sequence

from repro.core.config import WgttConfig
from repro.experiments.common import outcome_digest
from repro.experiments.registry import register
from repro.experiments.runner import sweep
from repro.mobility.road import Position, Road
from repro.mobility.spatial import ApGridIndex
from repro.mobility.vehicle import VehicleTrack
from repro.scenarios.presets import shard_corridor_config
from repro.scenarios.testbed import AP_HEIGHT_M, AP_SETBACK_M, Testbed, TestbedConfig

#: Nearest-AP probes per deployment size (evenly spaced along the road).
BENCH_PROBES = 256

#: Fleet speed for the gate runs — fast enough that every client
#: crosses at least one shard boundary within the run.
GATE_SPEED_MPH = 25.0
#: Following-distance between fleet clients (metres).
GATE_GAP_M = 8.0


def _fleet_tracks(config: TestbedConfig, fleet: int) -> List[VehicleTrack]:
    """``fleet`` clients in single file, entering from the road head."""
    road = Road(length_m=config.road_length_m())
    return [
        VehicleTrack(
            road,
            start_x=config.client_start_x_m - i * GATE_GAP_M,
            speed_mph=GATE_SPEED_MPH,
        )
        for i in range(fleet)
    ]


def cell(
    seed: int,
    num_shards: int = 2,
    fleet: int = 1,
    duration_s: float = 8.0,
    num_aps: int = 8,
    ha: bool = False,
) -> Dict:
    """One sharded drive-by: a fleet crosses shard boundaries while the
    sharded invariant checker audits every handoff."""
    config = shard_corridor_config(
        num_shards=num_shards,
        num_aps=num_aps,
        seed=seed,
        wgtt=WgttConfig(ha_enabled=ha),
    )
    config.client_tracks = _fleet_tracks(config, fleet)
    testbed = Testbed(config)
    checker = testbed.install_invariant_checker()

    sinks = []
    for index in range(fleet):
        testbed.add_downlink_udp_flow(index, rate_bps=4e6)[0].start()
        source, sink = testbed.add_uplink_udp_flow(index, rate_bps=1e6)
        source.start()
        sinks.append(sink)

    testbed.run_seconds(duration_s)
    report = checker.finish()

    manager = testbed.shard_manager
    controllers = [shard.active_controller() for shard in manager.shards]
    uplink_delivered = [len(sink.arrivals) for sink in sinks]

    outcome = {
        "seed": seed,
        "num_shards": num_shards,
        "num_aps": num_aps,
        "fleet": fleet,
        "per_shard_ha": ha,
        "handoffs_initiated": manager.stats["handoffs_initiated"],
        "handoffs_completed": manager.stats["handoffs_completed"],
        "handoffs_abandoned": manager.stats["handoffs_abandoned"],
        "handoff_retries": manager.stats["handoff_retries"],
        "handoff_duplicates": manager.stats["handoff_duplicates"],
        "handoff_bytes": manager.stats["handoff_bytes"],
        "downlink_lost": sum(shard.lost_downlink for shard in manager.shards),
        "downlink_unowned": manager.stats["downlink_unowned"],
        "dedup_suppressed": sum(
            c.dedup.duplicates for c in controllers if c is not None
        ),
        "uplink_unowned": sum(
            c.stats["uplink_unowned"] for c in controllers if c is not None
        ),
        "switches": sum(
            len(c.coordinator.history) for c in controllers if c is not None
        ),
        "ap_index_queries": testbed.ap_index.queries,
        "ap_index_scanned": testbed.ap_index.scanned,
        "invariant_checks": report["checks"],
        "invariant_violations": report["counts"],
        "violations": report["violations"],
        "uplink_delivered": uplink_delivered,
    }
    outcome["ok"] = bool(
        report["ok"]
        and report["counts"]["no-duplicate-delivery"] == 0
        and manager.stats["handoffs_completed"] >= 1
        and manager.stats["handoffs_abandoned"] == 0
        and all(delivered > 0 for delivered in uplink_delivered)
    )
    return outcome


# ----------------------------------------------------------------------
# candidate-set cost bench: grid index vs linear scan, 8 -> 400 APs
# ----------------------------------------------------------------------


def candidate_set_bench(
    num_aps_list: Sequence[int], probes: int = BENCH_PROBES
) -> Dict:
    """Per-query candidate-set cost of nearest-AP lookup vs AP count.

    Builds the *production* :class:`ApGridIndex` (same mount positions
    the testbed registers) for each deployment size and probes
    it at ``probes`` evenly spaced road positions.  ``scanned`` counts
    candidates whose distance was actually computed — the legacy linear
    ``min()`` computes all N per query by construction.  Everything here
    is deterministic: no wall-clock timing, just operation counts.
    """
    rows = []
    for num_aps in num_aps_list:
        config = TestbedConfig(num_aps=num_aps)
        index = ApGridIndex()
        for i, x in enumerate(config.ap_xs()):
            index.add(
                f"ap{i}",
                Position(x, -AP_SETBACK_M, AP_HEIGHT_M),
            )
        length = config.road_length_m()
        for k in range(probes):
            index.nearest(Position(length * k / (probes - 1), 0.0, 1.5))
        rows.append(
            {
                "num_aps": num_aps,
                "probes": index.queries,
                "grid_scanned_per_query": round(
                    index.scanned / index.queries, 3
                ),
                "linear_scanned_per_query": float(num_aps),
            }
        )
    smallest, largest = rows[0], rows[-1]
    growth = (
        largest["grid_scanned_per_query"] / smallest["grid_scanned_per_query"]
    )
    return {
        "probes_per_size": probes,
        "rows": rows,
        "grid_cost_growth_8_to_max": round(growth, 3),
        # "Flat" claim: grid cost may not even double while the linear
        # cost grows with N (50x here).
        "flat": growth < 2.0,
    }


#: (shards, fleet, APs) per cell; the full sweep adds the larger corridors.
QUICK_TOPOLOGIES = ((2, 1, 8), (2, 4, 8), (3, 2, 12))
FULL_TOPOLOGIES = (*QUICK_TOPOLOGIES, (4, 4, 24), (6, 8, 48))


def run(seed: int = 3, quick: bool = True, jobs: int = 1) -> Dict:
    """Sweep shard count x fleet size; every cell must pass the gate."""
    topologies = QUICK_TOPOLOGIES if quick else FULL_TOPOLOGIES
    duration_s = 8.0 if quick else 10.0
    swept = sweep(
        cell,
        [(shards, fleet, duration_s, aps) for shards, fleet, aps in topologies],
        (seed,) if quick else (seed, seed + 1),
        jobs,
    )
    outcomes = [outcome for cells in swept.values() for outcome in cells]
    failed = [o for o in outcomes if not o["ok"]]
    return {
        "cells": len(outcomes),
        "ok": not failed,
        "failed": failed,
        "handoffs_completed": sum(o["handoffs_completed"] for o in outcomes),
        "handoffs_abandoned": sum(o["handoffs_abandoned"] for o in outcomes),
        "duplicate_deliveries": sum(
            o["invariant_violations"]["no-duplicate-delivery"]
            for o in outcomes
        ),
        "violations": [v for o in outcomes for v in o["violations"]],
        "candidate_set": candidate_set_bench(num_aps_list=(8, 50, 200)),
        "rows": outcomes,
    }


# ----------------------------------------------------------------------
# CI smoke: one fleet crossing per topology + double-run determinism,
# hard pass/fail
# ----------------------------------------------------------------------


def smoke(seed: int = 3) -> Dict:
    """Small gate: two topologies (flat shards, a standby per region), schedule
    #1 run twice and required to produce the identical outcome digest."""
    first = cell(seed, num_shards=2, fleet=2)
    ha_run = cell(seed + 1, num_shards=2, fleet=1, ha=True)
    rerun = cell(seed, num_shards=2, fleet=2)
    outcomes = [first, ha_run]
    deterministic = outcome_digest(rerun) == outcome_digest(first)
    candidate_set = candidate_set_bench(num_aps_list=(8, 200), probes=64)
    ok = (
        all(o["ok"] for o in outcomes)
        and deterministic
        and candidate_set["flat"]
    )
    return {
        "ok": ok,
        "cells": len(outcomes),
        "deterministic": deterministic,
        "digest": outcome_digest(first),
        "handoffs_completed": sum(o["handoffs_completed"] for o in outcomes),
        "duplicate_deliveries": sum(
            o["invariant_violations"]["no-duplicate-delivery"]
            for o in outcomes
        ),
        "candidate_set": candidate_set,
        "violations": [v for o in outcomes for v in o["violations"]],
        "rows": outcomes,
    }


register(
    "ext_shard",
    "sharded control plane: inter-shard handoffs vs runtime invariants",
    run, smoke=smoke,
)
